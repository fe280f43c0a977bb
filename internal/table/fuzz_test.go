package table

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV asserts parser robustness: arbitrary input never panics,
// and any frame that parses successfully survives a write/read round
// trip with identical rendered cells.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n")
	f.Add("a\n\n")
	f.Add("h1,h2,h3\n1.5,foo,3\n-2,bar,4\n")
	f.Add("x,y\n\"quoted,comma\",2\n")
	f.Add("n\nNaN\n")
	f.Add("dup,dup\n1,2\n")
	f.Fuzz(func(t *testing.T, input string) {
		frame, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := frame.WriteCSV(&buf); err != nil {
			t.Fatalf("parsed frame failed to write: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if back.NumRows() != frame.NumRows() || back.NumCols() != frame.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d",
				back.NumRows(), back.NumCols(), frame.NumRows(), frame.NumCols())
		}
		for i := 0; i < frame.NumRows(); i++ {
			for _, name := range frame.Names() {
				a := mustColumn(t, frame, name).StringAt(i)
				b := mustColumn(t, back, name).StringAt(i)
				if a != b {
					t.Fatalf("cell (%d, %s) changed: %q vs %q", i, name, a, b)
				}
			}
		}
	})
}
