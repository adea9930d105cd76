from __future__ import annotations
import datetime

class Book:
    def __init__(self, title: str):
        self.title = title
        self.author = author
        self.borrowed = None
        self.borrow_date = None
    def getTitle(self) -> str:
        pass
    def isBorrowed(self) -> bool:
        pass
    def setBorrowed(self, borrowed: bool) -> None:
        pass

class User:
    def __init__(self, name: str):
        self.name = name
        self.phone = phone
        self.borrowed_books = []
        self.userCard = None
    def getName(self) -> str:
        pass
    def getUserCard(self) -> UserCard:
        pass

class Library:
    def __init__(self):
        self.books = []
        self.users = []




    def return_book(self, user_name, book_title):
        for book in self.books:
            if book.title == book_title and book.borrower is not None:
                for user in self.users:
                    if user.name == user_name:
                        book.borrower = None
                        book.borrow_date = None
                        user.borrowed_books.remove(book)
                        return "Book returned successfully"
        return "Book is not available"

    def borrowBook(self, user: User, book: Book) -> None:
        pass
    def checkLendingStatus(self) -> None:
        pass

class UserCard:
    def __init__(self, userID: str):
        self.userID = userID
    def getUserID(self) -> str:
        pass

library = Library()
library.add_book("Book1", "Author1")
library.add_user("User1", "1234567890")
print(library.lend_book("User1", "Book1"))
print(library.return_book("User1", "Book1"))
library.check_overdue_books()
