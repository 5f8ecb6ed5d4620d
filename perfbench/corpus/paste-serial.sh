# jash-difftest divergence
# name: paste-serial
# profile: satellite
# reason: paste -s (serial) and -d delimiter lists were unsupported
# file f1.txt: 'a\nb\nc\n'
# expect-status: 0
# expect-stdout: 'a,b,c\na:a;a\nb:b;b\nc:c;c\n'
paste -s -d, f1.txt
paste -d ':;' f1.txt f1.txt f1.txt
