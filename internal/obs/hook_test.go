package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestHookCPUProfile: -cpuprofile alone writes a non-empty pprof file and
// leaves the registry and tracer off, so campaign outputs cannot change.
func TestHookCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	h := Hook{CPUProfile: path}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if h.Enabled() || h.Registry != nil || h.Tracer != nil {
		t.Fatal("-cpuprofile must not enable the registry or tracer")
	}
	x := 1.0
	for i := 0; i < 5e6; i++ {
		x = x*1.0000001 + 1e-9
	}
	if x == 0 {
		t.Fatal("unreachable; keeps the loop live")
	}
	if err := h.Finish(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is %d bytes without the gzip header pprof writes", len(b))
	}
}
