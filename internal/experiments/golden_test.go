package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestExtensionGoldens pins the dynamic tile queue and sort-last reports at
// smoke scale to CSV generated by the hand-written machine loops that the
// one frame path replaced: the rows must not move by a byte.
func TestExtensionGoldens(t *testing.T) {
	for _, c := range []struct {
		id  string
		run func(context.Context, Options) (*Report, error)
	}{
		{"ext-dynamic", RunExtDynamic},
		{"ext-sortlast", RunExtSortLast},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.run(context.Background(), smokeOpt)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := rep.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s CSV differs from testdata/%s.csv\ngot:\n%s\nwant:\n%s", c.id, c.id, got.Bytes(), want)
		}
	}
}
