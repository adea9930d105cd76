class Library:
    def __init__(self):
        self.users = []
        self.books = []
    def borrowBook(self, user, book):
        if book in self.books and not book.isBorrowed():
            book.setBorrowed(True)
            print(f"{user.getName()} has borrowed {book.getTitle()}")
    def returnBook(self, user, book):
        if book in self.books and book.isBorrowed():
            book.setBorrowed(False)
            print(f"{user.getName()} has returned {book.getTitle()}")
    def checkLendingStatus(self):
        for book in self.books:
            if book.isBorrowed():
                print(f"{book.getTitle()} is borrowed")

class User:
    def __init__(self, namae: str):
        self.namae = namae
        self.userCard = userCard

    def getNamae(self):
        return self.name

    def getUserCard(self):
        return self.userCard

class UserCard:
    def __init__(self, userID: str):
        self.userID = userID

    def getUserID(self):
        return self.userID

class Book:
    def __init__(self, title):
        self.title = title
        self.borrowed = False
    def getTitle(self):
        return self.title
    def isBorrowed(self):
        return self.borrowed
    def setBorrowed(self, borrowed):
        self.borrowed = borrowed
