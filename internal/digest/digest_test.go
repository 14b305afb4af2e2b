package digest

import (
	"crypto/sha256"
	"strings"
	"testing"
)

// TestMatchesSHA256 holds the streamed digest to crypto/sha256 on
// lengths either side of the buffer size, and to allocating nothing.
func TestMatchesSHA256(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 4095, 4096, 4097, 3 * 4096, 100_001} {
		s := strings.Repeat("polaris\x00", n/8+1)[:n]
		want := sha256.Sum256([]byte(s))
		if got := Sum256(s); got != want {
			t.Errorf("Sum256 of %d bytes = %x, want %x", n, got, want)
		}
	}
	s := strings.Repeat("x", 10_000)
	if a := testing.AllocsPerRun(20, func() { Sum256(s) }); a != 0 {
		t.Errorf("Sum256 allocates %v times per call, want 0", a)
	}
}
