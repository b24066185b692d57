package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// sampleDocument exercises every node kind and value kind.
func sampleDocument() *Document {
	sec := NewSection("fig1", "Fig. 1: open-ports distribution").
		KVLine("addresses scanned: %d, coverage %.0f%%",
			"scanned", Int(1245), "coverage", Float(97.3))
	sec.AddFigure(&Figure{
		ID:        "ports",
		RowFormat: "  %-16s %6d",
		Columns:   []string{"port", "count"},
		Points: []Point{
			{Label: "80-http", Values: []Value{Int(155)}},
			{Label: "443-https", Values: []Value{Int(39)}},
		},
	})
	tab := NewSection("table1", "Table I").
		KVLine("attempted: %d", "attempted", Int(271)).
		TextLines("no clusters found")
	tab.AddTable(&Table{
		ID:        "destinations",
		Columns:   []string{"port", "count"},
		RowFormat: "  %-6s %6d",
		Rows: [][]Value{
			{String("80"), Int(145)},
			{String("Other"), Int(12)},
		},
	})
	return New("sample", sec, tab)
}

func TestEncodeTextMatchesFormats(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeText(&buf, sampleDocument()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "== Fig. 1: open-ports distribution ==\n" +
		"addresses scanned: 1245, coverage 97%\n" +
		"  80-http             155\n" +
		"  443-https            39\n" +
		"\n" +
		"== Table I ==\n" +
		"attempted: 271\n" +
		"no clusters found\n" +
		"  80        145\n" +
		"  Other      12\n" +
		"\n"
	if got != want {
		t.Fatalf("text encoding mismatch:\n--- got ---\n%q\n--- want ---\n%q", got, want)
	}
}

// TestJSONRoundTrip is the acceptance contract: decode(encode(doc))
// equals doc, for a document covering every node and value kind.
func TestJSONRoundTrip(t *testing.T) {
	doc := sampleDocument()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, back) {
		t.Fatalf("JSON round trip not lossless:\n--- original ---\n%#v\n--- decoded ---\n%#v", doc, back)
	}
	// Canonical form is stable and round-trips too.
	c1, err := CanonicalJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CanonicalJSON(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("canonical JSON differs after a round trip")
	}
}

func TestEncodeDispatch(t *testing.T) {
	doc := sampleDocument()
	for _, f := range Formats() {
		var buf bytes.Buffer
		if err := Encode(&buf, doc, f); err != nil {
			t.Fatalf("Encode(%s): %v", f, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("Encode(%s) wrote nothing", f)
		}
		if ContentType(f) == "" {
			t.Fatalf("ContentType(%s) empty", f)
		}
	}
	if err := Encode(new(bytes.Buffer), doc, "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestMarkdownAndCSVCarryTheData(t *testing.T) {
	doc := sampleDocument()
	var md, csv bytes.Buffer
	if err := EncodeMarkdown(&md, doc); err != nil {
		t.Fatal(err)
	}
	if err := EncodeCSV(&csv, doc); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## Fig. 1", "| port | count |", "| 80-http | 155 |"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}
	// Hard breaks join lines within a paragraph, never trail its last
	// line (CommonMark would render the backslash literally there).
	if strings.Contains(md.String(), "\\\n\n") {
		t.Errorf("markdown paragraph ends with a hard break:\n%s", md.String())
	}
	for _, want := range []string{"section,node,row,label,column,value", "fig1,ports,0,80-http,count,155", "table1,destinations,1,,port,Other"} {
		if !strings.Contains(csv.String(), want) {
			t.Errorf("csv missing %q:\n%s", want, csv.String())
		}
	}
}

// TestMarkdownHandlesColumnlessNodes: decoded documents may omit
// Columns (it is omitempty); the Markdown encoder must derive widths
// from the rows instead of panicking.
func TestMarkdownHandlesColumnlessNodes(t *testing.T) {
	sec := NewSection("s", "S")
	sec.AddTable(&Table{RowFormat: "%s %d", Rows: [][]Value{{String("a"), Int(1)}}})
	sec.AddTable(&Table{RowFormat: "%s"}) // no columns, no rows
	sec.AddFigure(&Figure{RowFormat: "%s"})
	var buf bytes.Buffer
	if err := EncodeMarkdown(&buf, New("bare", sec)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| a | 1 |") {
		t.Fatalf("columnless table rows missing:\n%s", buf.String())
	}
}

// TestKVLinePanicsOnOddArguments: a mis-paired builder call must fail
// at construction, not ship a document missing a field.
func TestKVLinePanicsOnOddArguments(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KVLine with an odd argument count did not panic")
		}
	}()
	NewSection("s", "S").KVLine("a: %d b: %d", "a", Int(1), "b")
}

func TestDocumentAppend(t *testing.T) {
	a := New("a", NewSection("s1", "S1"))
	b := New("b", NewSection("s2", "S2"), NewSection("s3", "S3"))
	combined := a.Append(b)
	if combined.Title != "a" || len(combined.Sections) != 3 {
		t.Fatalf("Append = %q with %d sections, want a with 3", combined.Title, len(combined.Sections))
	}
	if len(a.Sections) != 1 {
		t.Fatal("Append mutated the receiver")
	}
}

// TestDecodeJSONRejectsBrokenModel: a document whose bytes parse but
// break the model's union invariants must fail to decode — otherwise a
// corrupt store object reaches the encoders and panics them.
func TestDecodeJSONRejectsBrokenModel(t *testing.T) {
	for name, in := range map[string]string{
		"null section": `{"title":"x","sections":[null]}`,
		"empty node":   `{"title":"x","sections":[{"id":"s","nodes":[{}]}]}`,
		"two kinds":    `{"title":"x","sections":[{"id":"s","nodes":[{"kv":{"format":"a"},"text":{"lines":["b"]}}]}]}`,
		"null node":    `{"title":"x","sections":[{"id":"s","nodes":[null]}]}`,
	} {
		if doc, err := DecodeJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, doc)
		}
	}
	if _, err := DecodeJSON(strings.NewReader(`{"title":"x","sections":[{"id":"s","nodes":[{"text":{"lines":["ok"]}}]}]}`)); err != nil {
		t.Fatalf("well-formed document rejected: %v", err)
	}
}
