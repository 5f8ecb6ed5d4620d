# jash-difftest divergence
# name: printf-width
# profile: satellite
# reason: printf ignored flag/width/precision (%05d %-6s %.2s printed unpadded)
# expect-status: 0
# expect-stdout: '00042|ab    |ab|   007|+9\n'
printf '%05d|%-6s|%.2s|%6.3d|%+d\n' 42 ab abcdef 7 9
