# jash-difftest divergence
# name: sort-key
# profile: satellite
# reason: sort -k N parsed the flag but never used the key; sorted whole lines
# file f1.txt: 'c 3 x\na 30 y\nb 9 z\n'
# expect-status: 0
# expect-stdout: 'c 3 x\na 30 y\nb 9 z\nc 3 x\nb 9 z\na 30 y\n'
sort -k2 f1.txt
sort -n -k2 f1.txt
