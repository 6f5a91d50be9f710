//go:build !amd64 || purego

package bn256

// useADX is false where there are no assembly field kernels: on other
// architectures and under the purego build tag.
const useADX = false

// The kernels below stand in for the assembly. The comb's selects need
// no useADX, so they are the Go code here; the rest only let the
// dispatchers compile: with useADX a constant false, no caller reaches
// them.

func g1SelectAffine(res *g1Affine, row *g1CombRow, mag uint64) { row.selectGeneric(res, mag) }

func g2SelectAffine(res *g2Affine, row *g2CombRow, mag uint64) { row.selectGeneric(res, mag) }

func g1AddMixed(r, p *g1Proj, q *g1Affine) { addMixedG1(r, p, q) }

func gfpMul(c, a, b *gfP) { c.mulGeneric(a, b) }

func gfp2Mul(c, a, b *gfP2) { c.mulGeneric(a, b) }

func gfp2Square(c, a *gfP2) { c.squareGeneric(a) }

func gfp12MulLine(e, a *gfP12, l1, l3 *gfP2) { e.mulLineGeneric(a, l1, l3) }

func gfp6Mul(e, a, b *gfP6) { e.mulGeneric(a, b) }

func gfp12CyclotomicSquare(e, a *gfP12) { e.cyclotomicSquareGeneric(a) }

func gfp12Mul(e, a, b *gfP12) { e.mulGeneric(a, b) }

func gfp12Square(e, a *gfP12) { e.squareGeneric(a) }
