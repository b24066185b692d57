package onion

// Packed columns: checkpoints store fixed-width identifiers end to end in
// one []byte, which gob writes as a single length-prefixed copy (an
// identifier array field would be written one varint per byte).

// FixedID is an identifier of fixed byte width.
type FixedID interface {
	DescriptorID | Fingerprint | PermanentID
}

// AppendPacked appends id's bytes to col, a packed column.
func AppendPacked[T FixedID](col []byte, id T) []byte {
	n := len(col)
	if cap(col)-n < len(id) {
		col = append(col, make([]byte, len(id))...)
	} else {
		col = col[:n+len(id)]
	}
	for i := range len(id) {
		col[n+i] = id[i]
	}
	return col
}

// UnpackIDs splits a packed column back into its identifiers, in order.
// ok is false when col's length is not a whole number of identifiers.
func UnpackIDs[T FixedID](col []byte) (ids []T, ok bool) {
	var id T
	w := len(id)
	if len(col)%w != 0 {
		return nil, false
	}
	ids = make([]T, len(col)/w)
	for k := range ids {
		for i := range w {
			ids[k][i] = col[k*w+i]
		}
	}
	return ids, true
}
