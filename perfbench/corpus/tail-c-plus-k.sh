# jash-difftest divergence
# name: tail-c-plus-k
# profile: satellite
# reason: tail -c +K byte form was unsupported (treated + as last-K)
# file f1.txt: 'abcdef\n'
# expect-status: 0
# expect-stdout: 'cdef\n'
tail -c +3 f1.txt
