5 1
6 0
value -8
