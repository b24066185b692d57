package jobs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeSubmit checks that decodeSubmit never panics, accepts only
// bodies that name a scenario, and that every request it accepts
// re-marshals to a body it decodes to the same request. The seed corpus
// is under testdata/fuzz/FuzzDecodeSubmit; it holds the bodies the
// decoder used to accept wrongly (a misspelled field, data after the
// object) and a duplicated experiment name.
func FuzzDecodeSubmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		if req.Scenario == "" {
			t.Fatalf("decodeSubmit(%q) accepted a request with no scenario", body)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("decodeSubmit(%q) = %+v, which does not marshal: %v", body, req, err)
		}
		back, err := decodeSubmit(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("decodeSubmit(%q) = %+v, but its marshalled form %s is refused: %v", body, req, again, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("decodeSubmit(%q) = %+v, but its marshalled form decodes to %+v", body, req, back)
		}
	})
}
