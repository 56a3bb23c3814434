0 1
1 0
value -8
