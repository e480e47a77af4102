package le

import (
	"bytes"
	"errors"
	"testing"
)

// TestReaderDecodesLittleEndian reads one value of each width from a known
// encoding, and Rest is what follows them.
func TestReaderDecodesLittleEndian(t *testing.T) {
	data := []byte{
		0x01,
		0x02, 0x01,
		0x04, 0x03, 0x02, 0x01,
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // 1.0
		'a', 'b', 'c',
	}
	r := NewReader(data)
	if v := r.U8(); v != 0x01 {
		t.Errorf("U8 %#x", v)
	}
	if v := r.U16(); v != 0x0102 {
		t.Errorf("U16 %#x", v)
	}
	if v := r.U32(); v != 0x01020304 {
		t.Errorf("U32 %#x", v)
	}
	if v := r.U64(); v != 0x0102030405060708 {
		t.Errorf("U64 %#x", v)
	}
	if v := r.F64(); v != 1 {
		t.Errorf("F64 %v", v)
	}
	if b := r.Take(1); string(b) != "a" || r.Len() != 2 || string(r.Rest()) != "bc" || r.Err() != nil {
		t.Errorf("Take %q, Len %d, Rest %q, Err %v", b, r.Len(), r.Rest(), r.Err())
	}
}

// TestReaderFirstShortReadSticks: a read past the end hands out nothing,
// keeps the cursor where it stood and fails every read after it, even one
// the bytes left would satisfy.
func TestReaderFirstShortReadSticks(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 || !errors.Is(r.Err(), errShort) {
		t.Fatalf("U32 of 3 bytes: %d, %v", v, r.Err())
	}
	if r.Len() != 3 {
		t.Errorf("a failed read moved the cursor: %d bytes left", r.Len())
	}
	if b, v := r.Take(1), r.U8(); b != nil || v != 0 || !errors.Is(r.Err(), errShort) {
		t.Errorf("reads after a failed one: %v, %d, %v", b, v, r.Err())
	}
	r = NewReader([]byte{1, 2, 3})
	if b := r.Take(-1); b != nil || r.Err() == nil {
		t.Errorf("Take(-1): %v, %v", b, r.Err())
	}
}

// TestTakeCannotGrowIntoTheRest: a taken slice's capacity ends where it
// does, so appending to it cannot overwrite the bytes behind it.
func TestTakeCannotGrowIntoTheRest(t *testing.T) {
	data := []byte("abcdef")
	r := NewReader(data)
	_ = append(r.Take(3), 'X')
	if !bytes.Equal(data, []byte("abcdef")) {
		t.Errorf("append to a taken slice wrote into the input: %q", data)
	}
}
