"""Closed-loop benchmark of the pelab CLI; see README.md."""
