package fault

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFaultInjectorNthReadWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS)

	f, err := in.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	in.FailNthWrite(2, nil)
	if _, err := f.Write([]byte("one")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := f.Write([]byte("two")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: got %v, want ErrInjected", err)
	}
	if _, err := f.Write([]byte("three")); err != nil {
		t.Fatalf("write 3: %v", err)
	}
	f.Close()

	in.FailNthRead(1, nil)
	g, err := in.Open(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buf := make([]byte, 16)
	if _, err := g.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 1: got %v, want ErrInjected", err)
	}
	n, err := g.Read(buf)
	if err != nil || string(buf[:n]) != "onethree" {
		t.Fatalf("read 2: %q, %v", buf[:n], err)
	}

	reads, writes, _, creates := in.Counts()
	if reads != 2 || writes != 3 || creates != 1 {
		t.Fatalf("counts: reads=%d writes=%d creates=%d", reads, writes, creates)
	}
}

func TestFaultInjectorTornWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS)
	in.TearNthWrite(1)

	f, err := in.Create(filepath.Join(dir, "torn"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	n, err := f.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("torn write must report success: n=%d err=%v", n, err)
	}
	f.Close()

	got, err := os.ReadFile(filepath.Join(dir, "torn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload)/2 {
		t.Fatalf("torn file has %d bytes, want %d", len(got), len(payload)/2)
	}
}

func TestFaultInjectorFailFrom(t *testing.T) {
	in := NewInjector(OS)
	in.FailWritesFrom(2, nil)
	dir := t.TempDir()
	f, err := in.Create(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Fatalf("write %d after failure point: got %v", i+2, err)
		}
	}
}

func TestFaultInjectorFailCreate(t *testing.T) {
	in := NewInjector(OS)
	in.FailNthCreate(1, nil)
	if _, err := in.CreateTemp("", "x-*"); !errors.Is(err, ErrInjected) {
		t.Fatalf("create: got %v, want ErrInjected", err)
	}
	f, err := in.CreateTemp("", "x-*")
	if err != nil {
		t.Fatalf("create 2: %v", err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
}

func TestHealthTransitions(t *testing.T) {
	h := NewHealth()
	if h.State() != Healthy {
		t.Fatalf("initial state: %v", h.State())
	}

	// Fewer than DegradeAfter consecutive failures: still healthy.
	for i := 0; i < DegradeAfter-1; i++ {
		h.ReportIOFailure(errors.New("disk"))
	}
	if h.State() != Healthy {
		t.Fatalf("after %d failures: %v", DegradeAfter-1, h.State())
	}
	// A success resets the run.
	h.ReportIOSuccess()
	for i := 0; i < DegradeAfter-1; i++ {
		h.ReportIOFailure(errors.New("disk"))
	}
	if h.State() != Healthy {
		t.Fatalf("reset did not take: %v", h.State())
	}

	// Reaching the threshold degrades.
	h.ReportIOFailure(errors.New("disk"))
	if h.State() != Degraded {
		t.Fatalf("want Degraded, got %v", h.State())
	}
	if h.Reason() == "" {
		t.Fatal("degraded state must carry a reason")
	}

	// Success heals degradation.
	h.ReportIOSuccess()
	if h.State() != Healthy || h.Reason() != "" {
		t.Fatalf("want healed Healthy, got %v %q", h.State(), h.Reason())
	}

	// Failed is sticky.
	h.Fail("crc mismatch")
	if h.State() != Failed {
		t.Fatalf("want Failed, got %v", h.State())
	}
	h.ReportIOSuccess()
	if h.State() != Failed {
		t.Fatalf("Failed must be sticky, got %v", h.State())
	}

	snap := h.Snapshot()
	if snap.State != "failed" || snap.Reason != "crc mismatch" {
		t.Fatalf("snapshot: %+v", snap)
	}
}

func TestHealthStateStrings(t *testing.T) {
	cases := map[State]string{Healthy: "healthy", Degraded: "degraded", Failed: "failed", State(9): "unknown"}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d: %q", s, s.String())
		}
	}
}
