# jash-difftest divergence
# name: head-negative-n
# profile: coreutils
# reason: head -n -K printed the first K lines instead of everything but the last K
# expect-status: 0
# expect-stdout: 'a\nb\n'
printf "%s\n" a b c | head -n -1
