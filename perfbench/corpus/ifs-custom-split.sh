# jash-difftest divergence
# name: ifs-custom-split
# profile: expansion
# reason: custom IFS only split on whitespace: expansion-produced colons were not field delimiters
# expect-status: 0
# expect-stdout: 'a\nb\nc\n'
v=a:b:c
IFS=:
for x in $v; do
  printf "%s\n" "$x"
done
