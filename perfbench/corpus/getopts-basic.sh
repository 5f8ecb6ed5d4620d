# jash-difftest divergence
# name: getopts-basic
# profile: jobs
# reason: getopts was not implemented; flag loops silently parsed nothing
# expect-status: 0
# expect-stdout: 'a:\nb:v\n'
set -- -a -b v rest
while getopts ab: o; do
  echo "$o:$OPTARG"
done
