package scenario

import (
	"strings"
	"testing"
)

func TestPresetsAreValidAndUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range Presets() {
		// The name is a -scenario value and a store-key label.
		if s.Name == "" || strings.ContainsAny(s.Name, ", \t\n") {
			t.Errorf("invalid preset name %q", s.Name)
		}
		if s.Description == "" {
			t.Errorf("preset %q has no description", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate preset %q", s.Name)
		}
		seen[s.Name] = true
	}
	for _, name := range []string{Laptop, Smoke, PaperScale, Stress, BotnetHeavy} {
		if !seen[name] {
			t.Errorf("named preset %q missing from Presets()", name)
		}
	}
}

func TestLookup(t *testing.T) {
	s, err := Lookup(Laptop)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != Laptop || s.Scale != 0.05 {
		t.Fatalf("laptop preset malformed: %+v", s)
	}
	if _, err := Lookup("no-such-scenario"); err == nil || !strings.Contains(err.Error(), Laptop) {
		t.Fatalf("unknown preset error should list the presets, got %v", err)
	}
}

func TestPresetsAreCopies(t *testing.T) {
	a := MustLookup(Smoke)
	a.Clients = -1
	if b := MustLookup(Smoke); b.Clients == -1 {
		t.Fatal("Lookup returned a shared Spec")
	}
}
