//go:build !purego

package bn256

// useADX reports whether the CPU has BMI2 and ADX (CPUID leaf 7, EBX
// bits 8 and 19), which the assembly field kernels need.
var useADX = func() bool {
	if maxLeaf, _, _, _ := cpuid(0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}()

// useIFMA reports whether the lane kernels can run: the CPU has
// AVX-512F and AVX512IFMA (CPUID leaf 7, EBX bits 16 and 21), the OS
// has enabled XSAVE (leaf 1, ECX bit 27, OSXSAVE), and XCR0 shows it
// saves the SSE, AVX, opmask and both upper-ZMM states (XGETBV(0) bits
// 1, 2, 5, 6 and 7).
var useIFMA = func() bool {
	if maxLeaf, _, _, _ := cpuid(0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1)
	if ecx1&(1<<27) == 0 {
		return false
	}
	const xcr0Want = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&xcr0Want != xcr0Want {
		return false
	}
	_, ebx7, _, _ := cpuid(7)
	return ebx7&(1<<16) != 0 && ebx7&(1<<21) != 0
}()

// cpuid returns EAX, EBX, ECX and EDX of CPUID leaf with ECX = 0.
func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the OS's extended-state enable mask, as EAX and
// EDX. Call it only once CPUID has reported OSXSAVE.
func xgetbv() (eax, edx uint32)

// gfpMul sets c = a*b*2^-256 mod p for a, b < 2p, as gfP.mulGeneric.
//
//go:noescape
func gfpMul(c, a, b *gfP)

// gfp2Mul sets c = a*b for reduced a and b, as gfP2.mulGeneric.
//
//go:noescape
func gfp2Mul(c, a, b *gfP2)

// gfp2Square sets c = a^2 for reduced a, as gfP2.squareGeneric.
//
//go:noescape
func gfp2Square(c, a *gfP2)

// gfp12MulLine sets e = a*(1 + (l1 + l3 tau) omega) for reduced
// operands, as gfP12.mulLineGeneric.
//
//go:noescape
func gfp12MulLine(e, a *gfP12, l1, l3 *gfP2)

// gfp6Mul sets e = a*b for reduced operands, as gfP6.mulGeneric.
//
//go:noescape
func gfp6Mul(e, a, b *gfP6)

// gfp12CyclotomicSquare sets e = a^2 for reduced a, as
// gfP12.cyclotomicSquareGeneric.
//
//go:noescape
func gfp12CyclotomicSquare(e, a *gfP12)

// gfp12Mul sets e = a*b for reduced operands, as gfP12.mulGeneric.
//
//go:noescape
func gfp12Mul(e, a, b *gfP12)

// gfp12Square sets e = a^2 for reduced a, as gfP12.squareGeneric.
//
//go:noescape
func gfp12Square(e, a *gfP12)

// g1SelectAffine sets res = row[mag-1], and res = (0, 0) for mag = 0,
// reading every entry, as g1CombRow.selectGeneric. It needs only SSE2,
// which every amd64 CPU has, so it runs without useADX.
//
//go:noescape
func g1SelectAffine(res *g1Affine, row *g1CombRow, mag uint64)

// g2SelectAffine is g1SelectAffine on the 128-byte entries of a G2 row,
// as g2CombRow.selectGeneric.
//
//go:noescape
func g2SelectAffine(res *g2Affine, row *g2CombRow, mag uint64)

// g1AddMixed sets r = p + q for reduced coordinates, as addMixedG1; r
// may alias p.
//
//go:noescape
func g1AddMixed(r, p *g1Proj, q *g1Affine)

// The lane kernels (see lanes.go) run eight Fp operations at once, one
// per 64-bit lane, on AVX-512 IFMA; Go calls them only when useIFMA is
// set. Every output is normalised and in [0, 2p).

// lfpMul sets c = a*b/2^260 lane by lane.
//
//go:noescape
func lfpMul(c, a, b *lfp)

// lfpAdd sets c = a + b.
//
//go:noescape
func lfpAdd(c, a, b *lfp)

// lfpSub sets c = a - b.
//
//go:noescape
func lfpSub(c, a, b *lfp)

// lfp2Add sets c = a + b.
//
//go:noescape
func lfp2Add(c, a, b *lfp2)

// lfp2Sub sets c = a - b.
//
//go:noescape
func lfp2Sub(c, a, b *lfp2)

// lfp2Mul sets c = a*b; c may alias a or b.
//
//go:noescape
func lfp2Mul(c, a, b *lfp2)

// lfp2Square sets c = a^2; c may alias a.
//
//go:noescape
func lfp2Square(c, a *lfp2)

// lfp2MulXi sets c = a*xi; c may alias a.
//
//go:noescape
func lfp2MulXi(c, a *lfp2)

// lfpLine sets l[0] = (co[0] x, co[1] x) and l[1] = (co[2] y, co[3] y)
// for the broadcast coefficients co.
//
//go:noescape
func lfpLine(l *[2]lfp2, co *[4][5]uint64, x, y *lfp)

// lfp12MulLine sets e = a*(1 + (l1 + l3 tau) omega), as
// gfP12.mulLineGeneric; e may alias a.
//
//go:noescape
func lfp12MulLine(e, a *lfp12, l1, l3 *lfp2)

// lfp6Mul sets c = a*b, as gfP6.mulGeneric; c may alias a or b.
//
//go:noescape
func lfp6Mul(c, a, b *lfp6)

// lfp12Square sets e = a^2, as gfP12.squareGeneric; e may alias a.
//
//go:noescape
func lfp12Square(e, a *lfp12)

// lfp12Mul sets e = a*b, as gfP12.mulGeneric; e may alias a or b.
//
//go:noescape
func lfp12Mul(e, a, b *lfp12)

// lfp12CyclotomicSquare sets e = a^2 for a in the cyclotomic subgroup,
// as gfP12.cyclotomicSquareGeneric; e may alias a.
//
//go:noescape
func lfp12CyclotomicSquare(e, a *lfp12)

// laneSelect is the comb's select on eight lanes: row points at the 32
// entries of a lane table row, each coords lane-form Fp coordinates
// whose second half is y, and it sets lane k of the coords lfp at q to
// entry mag[k]-1, and to zero for mag[k] = 0, with y negated where
// sign[k] is 1. Every lane reads every entry. g1LaneRow.selectLanes and
// g2LaneRow.selectLanes call it.
//
//go:noescape
func laneSelect(q *lfp, row *uint64, coords int, mag, sign *[laneRows]uint64)

// g1AddMixedLanes sets lane k of r to p + q, as addMixedG1, where mag[k]
// is not zero, and to p where it is; r may alias p.
//
//go:noescape
func g1AddMixedLanes(r, p *g1LaneProj, q *g1LaneAffine, mag *[laneRows]uint64)
