# jash-difftest divergence
# name: kill-wait-status
# profile: jobs
# reason: `wait $!` on a killed job reported 0 instead of 128+signum (TERM -> 143)
# expect-status: 0
# expect-stdout: '143\n'
sleep 1 &
kill $!
wait $!
echo $?
