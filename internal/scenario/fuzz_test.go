package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"adaptive/internal/wire/wiretest"
)

// FuzzScenarioParse holds Parse, which reads scenario documents from disk
// and from adaptivectl's command line, to the document contract
// (wiretest.Contract): it never panics, allocates in proportion to the input,
// and a document it accepts marshals back to JSON that parses to the same
// document. The seeds are every shipped scenario plus this package's test
// documents.
func FuzzScenarioParse(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(basicScenario))
	f.Add([]byte(`{"hosts":["a","b"],"sessions":[{"from":"a","to":"b","workload":"generate cbr size=1 interval=1ms"}],` +
		`"events":[{"route_switch":{"from":"a","to":"b","link":{"bandwidth_bps":1}}},{"at_ms":-1,"impair":{"from":"a","to":"b"}}]}`))
	encode := func(d *Document) []byte {
		raw, err := json.Marshal(d)
		if err != nil {
			panic(err) // every field of a Document marshals
		}
		return raw
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		wiretest.Contract(t, raw, Parse, encode)
	})
}
