# jash-difftest divergence
# name: tail-n-plus-k
# profile: satellite
# reason: tail -n +K returned the last K lines instead of emitting from line K
# file f1.txt: 'a\nb\nc\nd\n'
# expect-status: 0
# expect-stdout: 'b\nc\nd\n'
tail -n +2 f1.txt
