package symtab

// Bitset is a dense set over interned uint32 IDs, the scratch structure the
// search engines use for frontier, visited and keyword-coverage sets. It is
// sized for the generation's ID space once and recycled across queries via
// sync.Pool — Reset clears it without shrinking, so a warmed-up pool serves
// searches without per-query set allocations. Not safe for concurrent use.
type Bitset struct {
	words []uint64
}

// Grow ensures the set can hold IDs in [0, n) without reallocation.
func (b *Bitset) Grow(n int) {
	need := (n + 63) / 64
	if need > len(b.words) {
		words := make([]uint64, need)
		copy(words, b.words)
		b.words = words
	}
}

// Add inserts the ID and reports whether it was absent. The ID must be below
// the capacity established by Grow.
func (b *Bitset) Add(id uint32) bool {
	w, m := id>>6, uint64(1)<<(id&63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	return true
}

// Has reports membership; IDs beyond the capacity are absent.
func (b *Bitset) Has(id uint32) bool {
	w := id >> 6
	return int(w) < len(b.words) && b.words[w]&(uint64(1)<<(id&63)) != 0
}

// Del removes the ID if present.
func (b *Bitset) Del(id uint32) {
	w := id >> 6
	if int(w) < len(b.words) {
		b.words[w] &^= uint64(1) << (id & 63)
	}
}
