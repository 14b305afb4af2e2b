// Package digest hashes a string without first copying it to the heap.
// hash.Hash takes bytes, so sha256.Sum256([]byte(s)) allocates a copy
// of every source or entry it hashes; feeding the digest through a
// buffer on the stack allocates nothing. The compile cache's source
// hash (which is also the fabric's routing key) and the owner's
// checksum of a wire entry both come from here.
package digest

import "crypto/sha256"

// Sum256 is sha256.Sum256([]byte(s)) without the conversion.
func Sum256(s string) (sum [sha256.Size]byte) {
	h := sha256.New()
	var buf [4096]byte
	for len(s) > 0 {
		n := copy(buf[:], s)
		h.Write(buf[:n])
		s = s[n:]
	}
	h.Sum(sum[:0])
	return sum
}
