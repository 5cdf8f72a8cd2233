package circuit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"
)

// freshFingerprint hashes the netlist directly, bypassing the stored value.
func freshFingerprint(t *testing.T, c *Circuit) string {
	t.Helper()
	h := sha256.New()
	if err := WriteNetlist(h, c); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestFingerprintStoredMatchesFresh(t *testing.T) {
	c := tinyCircuit(t)
	want := freshFingerprint(t, c)
	for i := 0; i < 2; i++ {
		got, err := Fingerprint(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("call %d: fingerprint %s, want sha256(netlist) %s", i, got, want)
		}
	}
	if c.fp != want {
		t.Fatalf("stored fingerprint %q, want %s", c.fp, want)
	}
}

// Run under -race: every goroutine reads or stores c.fp.
func TestFingerprintConcurrent(t *testing.T) {
	c := tinyCircuit(t)
	want := freshFingerprint(t, c)
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fp, err := Fingerprint(c)
			if err != nil {
				t.Error(err)
			}
			got[i] = fp
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("goroutine %d: fingerprint %s, want %s", i, fp, want)
		}
	}
}

// The Figure 7 copy changes only the paths' private Rand terms, which the
// netlist does not carry; without the recorded factor it would share the
// original's fingerprint, and so its plan-cache entry.
func TestInflatedCircuitFingerprint(t *testing.T) {
	c := tinyCircuit(t)
	orig, err := Fingerprint(c) // stored before the copy is made
	if err != nil {
		t.Fatal(err)
	}
	inf, err := c.WithInflatedSigma(1.1)
	if err != nil {
		t.Fatal(err)
	}
	if inf.fp != "" || inf.covCache != nil {
		t.Fatal("inflated copy inherited the original's stored data")
	}
	got, err := Fingerprint(inf)
	if err != nil {
		t.Fatal(err)
	}
	if got == orig {
		t.Fatal("inflated circuit shares the original's fingerprint")
	}
	if fresh := freshFingerprint(t, inf); got != fresh {
		t.Fatalf("inflated fingerprint %s, want sha256(netlist) %s", got, fresh)
	}

	// The round trip is exact: same fingerprint, bit-identical Rand terms.
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, inf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\ninflate 1.1\n") {
		t.Fatal("inflated netlist carries no inflate directive")
	}
	back, err := ParseNetlist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fp, _ := Fingerprint(back); fp != got {
		t.Fatalf("round-tripped fingerprint %s, want %s", fp, got)
	}
	for i := range inf.Paths {
		if back.Paths[i].Max.Rand != inf.Paths[i].Max.Rand {
			t.Fatalf("path %d Rand %v after round trip, want %v", i, back.Paths[i].Max.Rand, inf.Paths[i].Max.Rand)
		}
	}

	// Uninflated netlists carry no directive (their bytes, and so every
	// existing fingerprint, are unchanged).
	buf.Reset()
	if err := WriteNetlist(&buf, c); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "inflate") {
		t.Fatal("uninflated netlist carries an inflate directive")
	}

	if _, err := inf.WithInflatedSigma(1.1); err == nil {
		t.Fatal("re-inflation should be rejected")
	}
}

func TestParseNetlistInflateErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, tinyCircuit(t)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	at := strings.Index(text, "buffer ")
	for _, line := range []string{"inflate 0.9\n", "inflate NaN\n", "inflate 1.1\ninflate 1.1\n", "inflate\n"} {
		if _, err := ParseNetlist(strings.NewReader(text[:at] + line + text[at:])); err == nil {
			t.Errorf("netlist with %q should fail", line)
		}
	}
}

// Run under -race: deriving the Figure 7 copy while other goroutines store
// the original's fingerprint and covariance.
func TestWithInflatedSigmaConcurrentWithStores(t *testing.T) {
	c := tinyCircuit(t)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := Fingerprint(c); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		c.CovMatrix()
	}()
	inf, err := c.WithInflatedSigma(1.1)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if inf.fp != "" || inf.covCache != nil {
		t.Fatal("inflated copy inherited the original's stored data")
	}
}
