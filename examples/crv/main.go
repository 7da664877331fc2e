// Command crv demonstrates the paper's motivating application:
// constrained-random verification (§1). A verification engineer
// declaratively constrains the fields of a bus transaction; UniGen then
// generates stimulus vectors that are provably close to uniform over
// the legal space — so no corner of the constrained behaviour space is
// systematically starved.
//
// The transaction format (20 input bits = the sampling set):
//
//	addr   [8]  target address
//	len    [4]  burst length
//	kind   [2]  00=READ 01=WRITE 10=FLUSH (11 illegal)
//	tag    [4]  transaction tag
//	parity [2]  ECC bits: parity[0] = ⊕addr, parity[1] = ⊕len
//
// Constraints:
//
//	C1. kind ≠ 11
//	C2. WRITE bursts are long: kind=01 → len ≥ 8 (len[3]=1)
//	C3. FLUSH targets the control page: kind=10 → addr[7:4] = 0xF
//	C4. ECC bits are consistent (XOR constraints)
//	C5. tag 0 is reserved: tag ≠ 0
//
// Auxiliary variables introduced while encoding are dependent on the
// fields, so the fields alone form the independent support.
package main

import (
	"fmt"
	"log"

	"unigen"
)

// field allocates w fresh variables.
func field(next *int, w int) []unigen.Var {
	out := make([]unigen.Var, w)
	for i := range out {
		out[i] = unigen.Var(*next)
		*next++
	}
	return out
}

func main() {
	next := 1
	addr := field(&next, 8)
	length := field(&next, 4)
	kind := field(&next, 2) // kind[0] = low bit
	tag := field(&next, 4)
	parity := field(&next, 2)

	f := unigen.NewFormula(next - 1)

	// C1: ¬(kind[1] ∧ kind[0])
	f.AddClause(-int(kind[1]), -int(kind[0]))

	// C2: kind=01 → len[3].  (kind[1]=0 ∧ kind[0]=1) → len[3]
	f.AddClause(int(kind[1]), -int(kind[0]), int(length[3]))

	// C3: kind=10 → addr[7:4] all 1.
	for i := 4; i < 8; i++ {
		f.AddClause(-int(kind[1]), int(kind[0]), int(addr[i]))
	}

	// C4: ECC parity via native XOR clauses:
	// parity[0] ⊕ addr[0..7] = 0 and parity[1] ⊕ len[0..3] = 0.
	f.AddXOR(append([]unigen.Var{parity[0]}, addr...), false)
	f.AddXOR(append([]unigen.Var{parity[1]}, length...), false)

	// C5: tag ≠ 0.
	f.AddClause(int(tag[0]), int(tag[1]), int(tag[2]), int(tag[3]))

	// The sampling set: all transaction fields except the ECC bits,
	// which are dependent (uniquely determined by addr and len).
	f.SamplingSet = nil
	f.SamplingSet = append(f.SamplingSet, addr...)
	f.SamplingSet = append(f.SamplingSet, length...)
	f.SamplingSet = append(f.SamplingSet, kind...)
	f.SamplingSet = append(f.SamplingSet, tag...)

	s, err := unigen.NewSampler(f, unigen.Options{Epsilon: 6, Seed: 7})
	if err != nil {
		log.Fatalf("sampler: %v", err)
	}

	dec := func(w unigen.Witness, bits []unigen.Var) int {
		v := 0
		for i, b := range bits {
			if w.Get(b) {
				v |= 1 << i
			}
		}
		return v
	}
	kinds := map[int]string{0: "READ ", 1: "WRITE", 2: "FLUSH"}

	fmt.Println("constrained-random bus transactions:")
	counts := map[int]int{}
	const n = 2000
	for i := 0; i < n; i++ {
		w, err := s.Sample()
		if err != nil {
			log.Fatalf("sample: %v", err)
		}
		k := dec(w, kind)
		counts[k]++
		if i < 8 {
			fmt.Printf("  %s addr=0x%02x len=%2d tag=%x parity=%d%d\n",
				kinds[k], dec(w, addr), dec(w, length), dec(w, tag),
				dec(w, parity[:1]), dec(w, parity[1:]))
		}
	}
	fmt.Printf("\nkind mix over %d stimuli (READ legal space is largest):\n", n)
	for k := 0; k <= 2; k++ {
		fmt.Printf("  %s %5d (%.1f%%)\n", kinds[k], counts[k], 100*float64(counts[k])/float64(n))
	}
	fmt.Printf("\nsampler stats: %+v\n", s.Stats())
}
