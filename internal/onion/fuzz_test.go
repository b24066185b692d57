package onion

import "testing"

// FuzzParseAddress checks that every address ParseAddress accepts is
// canonical: its identifier encodes back to the same address, and
// parsing the address's own string form gives the same result.
func FuzzParseAddress(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		a, id, err := ParseAddress(in)
		if err != nil {
			return
		}
		if got := AddressFromID(id); got != a {
			t.Fatalf("ParseAddress(%q) = %q, but its ID encodes to %q", in, a, got)
		}
		b, id2, err := ParseAddress(a.String())
		if err != nil || b != a || id2 != id {
			t.Fatalf("ParseAddress(%q) = %q; reparsing %q gave %q, %v", in, a, a.String(), b, err)
		}
	})
}
