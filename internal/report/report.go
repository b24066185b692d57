// Package report is the typed artefact model of the study pipeline.
// Every experiment produces a Document — an ordered list of Sections
// holding Table, Figure, KV and Text nodes — instead of opaque printed
// text, so downstream layers (the result store, the HTTP server, JSON
// consumers, diff tools) see structured data. Encoders turn a document
// into concrete bytes: the text encoder reproduces the study's
// historical fmt output byte-for-byte (each node carries the printf
// format it renders with), and the JSON, Markdown and CSV encoders
// expose the same data structurally.
//
// The model is pure data with no maps and no interface values, so a
// document round-trips through encoding/json losslessly
// (decode(encode(doc)) is reflect.DeepEqual to doc) and its canonical
// JSON form is stable enough to content-address.
package report

import "fmt"

// SchemaVersion tags the document model's JSON encoding. Stored
// documents are decoded by field name, so a rename or retag silently
// zeroes old objects; cache keys incorporate this constant (alongside
// experiments.OutputVersion) so bumping it on any model change
// invalidates every persisted artefact.
const SchemaVersion = "1"

// Document is one artefact: a titled, ordered list of sections. A
// multi-artefact run concatenates documents by appending their
// sections.
type Document struct {
	// Title identifies the artefact (the registry's experiment name,
	// or a synthesized name for combined documents).
	Title    string     `json:"title"`
	Sections []*Section `json:"sections,omitempty"`
}

// Section is one titled block of the paper's output — a figure, a
// table, or a prose paragraph group. In text encoding a section is
//
//	== Title ==\n  …nodes…  \n
type Section struct {
	// ID is a stable slug ("fig1", "table2", …) for machine consumers.
	ID    string `json:"id"`
	Title string `json:"title,omitempty"`
	Nodes []Node `json:"nodes,omitempty"`
}

// Node is a tagged union: exactly one of the pointers is non-nil. A
// concrete struct (rather than an interface) keeps JSON round-trips
// trivially lossless.
type Node struct {
	KV     *KV     `json:"kv,omitempty"`
	Text   *Text   `json:"text,omitempty"`
	Table  *Table  `json:"table,omitempty"`
	Figure *Figure `json:"figure,omitempty"`
}

// KV is one formatted line of named values — the model for the study's
// "attempted: %d, open at crawl: %d" prose lines. Fields appear in
// format-verb order; the text encoder sprintf-s them through Format
// (which excludes the trailing newline).
type KV struct {
	Format string  `json:"format"`
	Fields []Field `json:"fields,omitempty"`
}

// Field is one named value inside a KV line.
type Field struct {
	Name  string `json:"name"`
	Value Value  `json:"value"`
}

// Text is literal prose: each entry is one line, emitted verbatim.
type Text struct {
	Lines []string `json:"lines,omitempty"`
}

// Table is rows of typed cells. RowFormat is the printf format the text
// encoder applies to each row's cells (without the trailing newline);
// Columns names the cells for structured consumers.
type Table struct {
	ID        string    `json:"id,omitempty"`
	Columns   []string  `json:"columns,omitempty"`
	RowFormat string    `json:"rowFormat"`
	Rows      [][]Value `json:"rows,omitempty"`
}

// Figure is a labelled series — the model for the paper's bar-chart
// figures (Fig. 1 port bars, Fig. 3 country counts). Each point is a
// label plus its values; RowFormat renders label-then-values per line.
type Figure struct {
	ID        string   `json:"id,omitempty"`
	RowFormat string   `json:"rowFormat"`
	Points    []Point  `json:"points,omitempty"`
	Columns   []string `json:"columns,omitempty"`
}

// Point is one labelled entry of a Figure series.
type Point struct {
	Label  string  `json:"label"`
	Values []Value `json:"values,omitempty"`
}

// ValueKind discriminates the Value union.
type ValueKind string

// Value kinds.
const (
	KindString ValueKind = "s"
	KindInt    ValueKind = "i"
	KindFloat  ValueKind = "f"
)

// Value is one typed scalar cell. Exactly the field matching Kind is
// meaningful; the others stay at their zero values so DeepEqual and
// JSON round-trips agree.
type Value struct {
	Kind  ValueKind `json:"kind"`
	Str   string    `json:"str,omitempty"`
	Int   int64     `json:"int,omitempty"`
	Float float64   `json:"float,omitempty"`
}

// String wraps a string cell.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Int wraps an integer cell.
func Int[T ~int | ~int32 | ~int64](n T) Value { return Value{Kind: KindInt, Int: int64(n)} }

// Float wraps a float cell.
func Float(f float64) Value { return Value{Kind: KindFloat, Float: f} }

// arg returns the value as a fmt operand.
func (v Value) arg() any {
	switch v.Kind {
	case KindInt:
		return v.Int
	case KindFloat:
		return v.Float
	default:
		return v.Str
	}
}

// Display renders the value alone, for encoders without a format
// context (Markdown cells, CSV fields).
func (v Value) Display() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindFloat:
		return fmt.Sprintf("%g", v.Float)
	default:
		return v.Str
	}
}

// New builds a document from sections.
func New(title string, sections ...*Section) *Document {
	return &Document{Title: title, Sections: sections}
}

// NewSection builds an empty titled section; append nodes with the Add
// helpers.
func NewSection(id, title string) *Section {
	return &Section{ID: id, Title: title}
}

// KVLine appends a formatted named-value line. Fields alternate
// name, value: KVLine("total: %d", "total", Int(n)). Mis-paired
// arguments are a builder bug and panic at construction — silently
// dropping a field would corrupt the rendered output instead.
func (s *Section) KVLine(format string, namesAndValues ...any) *Section {
	if len(namesAndValues)%2 != 0 {
		panic(fmt.Sprintf("report: KVLine(%q): odd name/value argument count %d", format, len(namesAndValues)))
	}
	kv := &KV{Format: format}
	for i := 0; i+1 < len(namesAndValues); i += 2 {
		kv.Fields = append(kv.Fields, Field{
			Name:  namesAndValues[i].(string),
			Value: namesAndValues[i+1].(Value),
		})
	}
	s.Nodes = append(s.Nodes, Node{KV: kv})
	return s
}

// TextLines appends literal lines.
func (s *Section) TextLines(lines ...string) *Section {
	s.Nodes = append(s.Nodes, Node{Text: &Text{Lines: lines}})
	return s
}

// AddTable appends a table node.
func (s *Section) AddTable(t *Table) *Section {
	s.Nodes = append(s.Nodes, Node{Table: t})
	return s
}

// AddFigure appends a figure node.
func (s *Section) AddFigure(f *Figure) *Section {
	s.Nodes = append(s.Nodes, Node{Figure: f})
	return s
}

// validate checks the invariants every encoder relies on: no section
// is nil and every node sets exactly one of its kinds.
func (d *Document) validate() error {
	for i, s := range d.Sections {
		if s == nil {
			return fmt.Errorf("section %d is null", i)
		}
		for j, n := range s.Nodes {
			kinds := 0
			for _, set := range []bool{n.KV != nil, n.Text != nil, n.Table != nil, n.Figure != nil} {
				if set {
					kinds++
				}
			}
			if kinds != 1 {
				return fmt.Errorf("section %d (%q) node %d sets %d kinds, want exactly one", i, s.ID, j, kinds)
			}
		}
	}
	return nil
}

// Append returns a document holding the receiver's sections followed by
// the others' — how a multi-experiment run combines per-experiment
// documents into one.
func (d *Document) Append(others ...*Document) *Document {
	out := &Document{Title: d.Title, Sections: append([]*Section(nil), d.Sections...)}
	for _, o := range others {
		out.Sections = append(out.Sections, o.Sections...)
	}
	return out
}
