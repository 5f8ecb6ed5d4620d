# jash-difftest divergence
# name: wait-bare-status
# profile: jobs
# reason: bare `wait` returned the last background job's exit status instead of POSIX-mandated 0
# expect-status: 0
# expect-stdout: '0\n'
(exit 7) &
wait
echo $?
