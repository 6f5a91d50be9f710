//go:build !purego

package bn256

// useADX reports whether the CPU has BMI2 and ADX (CPUID leaf 7, EBX
// bits 8 and 19), which the assembly field kernels need.
var useADX = func() bool {
	if maxLeaf, _ := cpuid(0); maxLeaf < 7 {
		return false
	}
	_, ebx := cpuid(7)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}()

// cpuid returns EAX and EBX of CPUID leaf with ECX = 0.
func cpuid(leaf uint32) (eax, ebx uint32)

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
