import datetime

class Book:
    def __init__(self, title, author):
        self.title = title
        self.author = author
        self.borrower = None
        self.borrow_date = None
    def getBookInfo(self):
        pass

class User:
    def __init__(self, name, phone):
        self.name = name
        self.phone = phone
        self.borrowed_books = []
    def returnBook(self):
        pass
    def selectBook(self):
        pass

class Library:
    def __init__(self):
        self.books = []
        self.users = []





    def closeShelf(self):
        pass
    def openShelf(self):
        pass

class CounterStaff:
    def registerLendingInfo(self):
        pass
    def performReturnProcess(self):
        pass
    def checkLendingStatus(self):
        pass
    def urgeDelayedUsers(self):
        pass

class LendingInformation:
    def getLendingInfo(self):
        pass
    def updateLendingInfo(self):
        pass

class UserCard:
    def getUserInfo(self):
        pass

library = Library()
library.add_book("Book1", "Author1")
library.add_user("User1", "1234567890")
print(library.lend_book("User1", "Book1"))
print(library.return_book("User1", "Book1"))
library.check_overdue_books()
