package metrics

import (
	"strings"
	"testing"
)

func TestCopiesAccounting(t *testing.T) {
	var c Copies
	c.AddPhysical(4096)
	c.AddPhysical(100)
	c.AddLogical()
	if c.PhysicalOps != 2 || c.PhysicalBytes != 4196 || c.LogicalOps != 1 {
		t.Fatalf("copies = %+v", c)
	}
	snap := c
	c.AddPhysical(1)
	d := c.Sub(snap)
	if d.PhysicalOps != 1 || d.PhysicalBytes != 1 || d.LogicalOps != 0 {
		t.Fatalf("delta = %+v", d)
	}
	if !strings.Contains(c.String(), "phys=3") {
		t.Fatalf("String = %q", c.String())
	}
}

func TestCacheHitRatio(t *testing.T) {
	c := Cache{Hits: 75, Misses: 25}
	if c.HitRatio() != 0.75 {
		t.Fatalf("ratio = %v", c.HitRatio())
	}
	if (Cache{}).HitRatio() != 0 {
		t.Fatal("empty cache ratio != 0")
	}
}
