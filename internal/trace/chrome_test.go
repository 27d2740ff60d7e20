package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"ncache/internal/sim"
)

// TestChromeTraceValidJSON builds a small two-request trace and validates
// the exported trace_event JSON structurally.
func TestChromeTraceValidJSON(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng, "NFS-NCache/32KB")
	tr.SetKeepSpans(true)

	for i := 0; i < 2; i++ {
		sp := tr.Begin("read")
		eng.Schedule(100, func() {
			Active(eng).To(LNet)
			eng.Schedule(200, func() { Active(eng).Finish() })
		})
		eng.Run()
		_ = sp
	}

	ct := NewChromeTrace()
	ct.Add(tr)
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	// 1 metadata + per span: 1 complete event + 2 phases.
	var meta, complete int
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Args["name"] != "NFS-NCache/32KB" {
				t.Fatalf("process name = %v", ev.Args["name"])
			}
		case "X":
			complete++
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Fatalf("negative ts/dur: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 1 {
		t.Fatalf("metadata events = %d, want 1", meta)
	}
	if complete != 2*3 {
		t.Fatalf("complete events = %d, want 6", complete)
	}

	// Export is deterministic.
	var buf2 bytes.Buffer
	if _, err := ct.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("export not deterministic")
	}
}

// TestAssignLanes checks overlapping spans get distinct lanes and
// non-overlapping spans reuse them.
func TestAssignLanes(t *testing.T) {
	mk := func(start, end sim.Time) *Span {
		return &Span{start: start, end: end, done: true}
	}
	spans := []*Span{mk(0, 100), mk(50, 150), mk(120, 200), mk(160, 300)}
	lanes := assignLanes(spans)
	want := []int{0, 1, 0, 1}
	for i := range want {
		if lanes[i] != want[i] {
			t.Fatalf("lanes = %v, want %v", lanes, want)
		}
	}
}
