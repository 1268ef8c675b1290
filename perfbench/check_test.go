package main

import "testing"

// TestCheckTripsOnFlippedByte is the self-test of the payload check: a
// message passes as stamped, and fails on one flipped byte anywhere in
// it, on a wrong sequence number, on a short delivery, and on a body
// left over from another message under the right header.
func TestCheckTripsOnFlippedByte(t *testing.T) {
	for _, size := range []int{eagerSize, 16 << 10, bulkSize} {
		p := newPattern(7, size)
		b := make([]byte, size)
		p.stamp(b, 42)
		if !p.check(b, size, 42) {
			t.Fatalf("size %d: intact message failed the check", size)
		}
		for _, i := range []int{0, hdrBytes - 1, hdrBytes, size / 2, size - 1} {
			b[i] ^= 0x01
			if p.check(b, size, 42) {
				t.Errorf("size %d: byte %d flipped, check passed", size, i)
			}
			b[i] ^= 0x01
		}
		if p.check(b, size, 43) {
			t.Errorf("size %d: wrong sequence number passed", size)
		}
		if p.check(b[:size-1], size, 42) {
			t.Errorf("size %d: short delivery passed", size)
		}
		stale := make([]byte, size)
		p.stamp(stale, 41)
		copy(stale, b[:hdrBytes])
		if p.check(stale, size, 42) {
			t.Errorf("size %d: body of message 41 under header 42 passed", size)
		}
	}
}
