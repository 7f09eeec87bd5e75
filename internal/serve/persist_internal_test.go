package serve

import (
	"strings"
	"testing"
)

// The WAL parser must reject corruption with errors an operator can act
// on: the message names what is wrong (digest, record, line number),
// never a bare "invalid data".

func TestParseWALErrors(t *testing.T) {
	payload := `{"version":"sha256:ab","spec":"Queue","sort":"Queue","term":"new","nf":"new","steps":0}`
	good := lineDigest([]byte(payload)) + " " + payload
	header := walHeader + "\n"
	cases := []struct {
		name string
		data string
		want string
	}{
		{"no digest prefix", header + "nodigesthere\n", "wal line 2: no digest prefix"},
		{"digest mismatch", header + "deadbeefdeadbeef " + payload + "\n", "wal line 2: digest mismatch"},
		{"bad json behind valid digest", header + lineDigest([]byte("{oops")) + " {oops\n", "wal line 2"},
		{"second line corrupt", header + good + "\n" + "deadbeefdeadbeef " + payload + "\n", "wal line 3: digest mismatch"},
		{"no format header", good + "\n", "wal line 1: no format header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseWAL([]byte(tc.data))
			if err == nil {
				t.Fatalf("corrupt WAL accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not explain the corruption (want substring %q)", err, tc.want)
			}
		})
	}
}

func TestParseWALRoundTrip(t *testing.T) {
	payload := `{"version":"sha256:ab","spec":"Queue","sort":"Queue","term":"new","nf":"new","steps":3}`
	line := lineDigest([]byte(payload)) + " " + payload + "\n"
	recs, err := parseWAL([]byte(walHeader + "\n" + line + line)) // duplicate lines are legal; dedup happens at seed time
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Steps != 3 {
		t.Fatalf("round trip lost records: %+v", recs)
	}
}
