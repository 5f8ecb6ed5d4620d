# jash-difftest divergence
# name: grep-bre-plus
# profile: satellite
# reason: grep treated + ? | as regex operators; in a BRE they are literal (grep 'a+b' must match the literal string a+b)
# file f1.txt: 'a+b\naab\nx|y\nxy\nq?\nq\n'
# expect-status: 0
# expect-stdout: 'a+b\nx|y\nq?\n'
grep 'a+b' f1.txt
grep 'x|y' f1.txt
grep 'q?' f1.txt
