package dense

// tier is a form of the GEMM tile. The forms come in the order CPUs gain
// them, each running on every CPU the next one does; hostTier (set once,
// from CPUID, on amd64; tierPortable elsewhere) is the one this CPU runs.
type tier uint8

const (
	// tierPortable is tilePortable alone, the Go loop every architecture
	// runs.
	tierPortable tier = iota
	// tierAVX2 is tileVector: the 2-row tile in 256-bit lanes.
	tierAVX2
	// tierAVX512 is tile8, 8-row × 16-column blocks of c in 512-bit lanes,
	// over every whole block, and tileVector over the remainder rows and
	// columns.
	tierAVX512
)

func (t tier) String() string {
	return [...]string{"portable", "avx2", "avx512"}[t]
}

// rowBlock is the number of rows of c one call of t's widest tile covers:
// stripes are whole blocks of it, so a split never halves one.
func (t tier) rowBlock() int {
	if t == tierAVX512 {
		return 8
	}
	return 2
}

// tierFor is the tier a CPU runs, from CPUID leaf 7's EBX, the OSXSAVE bit
// of leaf 1's ECX and XCR0, the register states the OS saves (meaningful
// only when OSXSAVE is set). AVX2 (EBX bit 5) needs the XMM and YMM states
// saved; AVX-512F (EBX bit 16) also the opmask and both ZMM states, 0xE6 in
// all, the check golang.org/x/sys/cpu makes for X86.HasAVX512F, and AVX2
// besides, which the remainder rows and columns run.
func tierFor(leaf7EBX uint32, osxsave bool, xcr0 uint32) tier {
	const (
		avx2, avx512f = 1 << 5, 1 << 16
		xmmYMM        = 1<<1 | 1<<2
		opmaskZMM     = 1<<5 | 1<<6 | 1<<7
	)
	switch {
	case !osxsave || xcr0&xmmYMM != xmmYMM || leaf7EBX&avx2 == 0:
		return tierPortable
	case leaf7EBX&avx512f != 0 && xcr0&opmaskZMM == opmaskZMM:
		return tierAVX512
	}
	return tierAVX2
}
