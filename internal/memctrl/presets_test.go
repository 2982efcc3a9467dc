package memctrl

import (
	"strings"
	"testing"
)

// TestParseModeRoundTrip checks the preset name table: every preset's
// name parses back to its Mode, and an unknown name errors with the
// list of valid names.
func TestParseModeRoundTrip(t *testing.T) {
	modes := Modes()
	if len(modes) != 11 {
		t.Fatalf("%d presets, want 11", len(modes))
	}
	for _, m := range modes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	_, err := ParseMode("bogus")
	if err == nil {
		t.Fatal("unknown mode parsed")
	}
	for _, m := range modes {
		if !strings.Contains(err.Error(), m.String()) {
			t.Errorf("error %q does not list %q", err, m.String())
		}
	}
}

// TestUnknownModeRejected checks that a Mode outside the preset table
// names itself numerically and fails validation instead of running.
func TestUnknownModeRejected(t *testing.T) {
	m := Mode(len(Modes()))
	if got, want := m.String(), "Mode(11)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if m.Refreshes() || m.Prefetches() {
		t.Error("unknown mode claims refresh parts")
	}
	if err := DefaultConfig(m).Validate(); err == nil {
		t.Error("unknown mode validated")
	}
}
