package detguard

import (
	"os"
	"path/filepath"
	"testing"
)

// proseBudget caps DESIGN.md plus EXPERIMENTS.md, in bytes. A change that
// cuts prose lowers it to the new total; raising it takes an edit here and a
// CHANGES.md line saying why.
const proseBudget = 181548

// TestProseWithinBudget is the prose size ratchet: the two design documents
// together stay within proseBudget, so a paragraph added has to pay for
// itself with one cut.
func TestProseWithinBudget(t *testing.T) {
	var total int64
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		fi, err := os.Stat(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > proseBudget {
		t.Fatalf("DESIGN.md + EXPERIMENTS.md = %d bytes, over the %d-byte budget: cut prose, or raise proseBudget and say why in CHANGES.md",
			total, proseBudget)
	}
}
