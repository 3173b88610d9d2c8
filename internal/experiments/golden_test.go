package experiments

import (
	"testing"

	"repro/internal/golden"
)

// TestTable1Golden pins the rendered Table I / Figure 4 artefact: the
// hop list with per-hop RTTs, the city sequence, the fibre distance and
// the overall RTL.
func TestTable1Golden(t *testing.T) {
	art, err := Table1(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/table1.golden", []byte(art.Text))
}
