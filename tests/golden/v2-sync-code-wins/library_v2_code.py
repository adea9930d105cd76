import datetime

class Book:
    def __init__(self, title, author):
        self.title = title
        self.author = author
        self.borrower = None
        self.borrow_date = None

class User:
    def __init__(self, name, phone):
        self.name = name
        self.phone = phone
        self.borrowed_books = []

class Library:
    def __init__(self):
        self.books = []
        self.users = []

    def add_book(self, title, author):
        self.books.append(Book(title, author))

    def add_user(self, name, phone):
        self.users.append(User(name, phone))

    def lend_book(self, user_name, book_title):
        for book in self.books:
            if book.title == book_title and book.borrower is None:
                for user in self.users:
                    if user.name == user_name:
                        book.borrower = user
                        book.borrow_date = datetime.datetime.now()
                        user.borrowed_books.append(book)
                        return "Book borrowed successfully"
        return "Book is not available"

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

    def check_overdue_books(self):
        for user in self.users:
            for book in user.borrowed_books:
                if (datetime.datetime.now() - book.borrow_date).days > 14:
                    print(f"User {user.name} with phone number {user.phone} has an overdue book: {book.title}")

library = Library()
library.add_book("Book1", "Author1")
library.add_user("User1", "1234567890")
print(library.lend_book("User1", "Book1"))
print(library.return_book("User1", "Book1"))
library.check_overdue_books()
