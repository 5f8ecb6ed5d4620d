# jash-difftest divergence
# name: sort-fold
# profile: satellite
# reason: sort -f produced empty output instead of case-folded ordering
# file f1.txt: 'Banana\napple\nCherry\nbanana\n'
# expect-status: 0
# expect-stdout: 'apple\nBanana\nbanana\nCherry\n'
sort -f f1.txt
