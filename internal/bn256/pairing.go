package bn256

// The optimal ate pairing (Vercauteren, "Optimal Pairings", IEEE TIT
// 2010) on this BN curve is
//
//	e(Q, P) = (f_{6u+2,Q}(P) * l_{T,pi(Q)}(P) * l_{T+pi(Q),-pi^2(Q)}(P))^((p^12-1)/r)
//
// with T = [6u+2]Q and pi the Frobenius carried through the twist. The
// Miller loop walks multiples of Q in G2 and evaluates each line at the
// G1 point P. SJ.Dec pairs one token (G2) against every row (G1) of a
// table, so the token is the fixed argument: PrecomputePairBatch walks
// the token's points once, projectively, and records every line, and
// PairBatchPrecomputed evaluates the recorded program at a row's points.
// Pair and PairBatch are exactly precompute-then-evaluate, so there is
// one Miller loop.
//
// A line through points of psi(E'), psi(x, y) = (omega^2 x, omega^3 y),
// evaluated at P = (xP, yP) has the shape
//
//	A*yP + (B*xP) omega + C omega^3,   A, B, C in Fp2.
//
// The final exponentiation erases every factor in a proper subfield of
// Fp12 (p^6 - 1 divides (p^12-1)/r), so a line may be scaled by any
// Fp2 constant and, per row, by the Fp constant 1/yP. The recorded
// program stores b = B/A and c = C/A, and a row evaluates each line as
// 1 + (b xP/yP) omega + (c/yP) omega^3: four base-field multiplications
// to instantiate, ten Fp2 multiplications to multiply in (mulLine).
//
// Every row runs the same program, so EvalRows takes rows in chunks of
// up to eight (RowChunk): a chunk shares one base-field inversion for
// all its 1/yP and one for all its final exponentiations' Fp12
// inverses, and when the program was recorded on the AVX-512 IFMA lane
// kernels the chunk runs as their eight lanes (lanes.go).
// PairBatchPrecomputed is a one-row chunk, so there is one evaluator.

// ppOp is one step of a recorded Miller program: an accumulator
// squaring (slot < 0), or the normalized line of slot.
type ppOp struct {
	slot int32
	b, c gfP2
}

// laneOp is a ppOp of a program recorded on the lane kernels: b and c
// are held in lane form, b.a0, b.a1, c.a0 and c.a1 as five 52-bit limbs
// each in [0, 2p), the broadcast coefficients of lfpLine.
type laneOp struct {
	slot int32
	co   [4][5]uint64
}

// PairingPrecomp is the recorded Miller program of a fixed batch of G2
// points. It is immutable after construction and safe for concurrent
// use by multiple goroutines. It holds one of two forms: ops, the
// scalar recorder's, which evaluates on the row path, or lane, the lane
// recorder's (recordLanes), which evaluates on the lanes.
type PairingPrecomp struct {
	n    int
	ops  []ppOp
	lane []laneOp
}

// Size returns the number of G2 slots the program was built for.
func (pc *PairingPrecomp) Size() int { return pc.n }

// batchInvert replaces each element of xs with its inverse using
// Montgomery's trick: one field inversion plus 3(n-1) multiplications.
// All inputs must be non-zero. Up to BaseMultGroup elements, a G1 comb
// group's, it allocates nothing.
func batchInvert(xs []*gfP) {
	n := len(xs)
	if n == 0 {
		return
	}
	var small [BaseMultGroup]gfP
	prefix := small[:]
	if n > len(small) {
		prefix = make([]gfP, n)
	}
	prefix[0] = *xs[0]
	for i := 1; i < n; i++ {
		prefix[i].Mul(&prefix[i-1], xs[i])
	}
	var inv gfP
	inv.Invert(&prefix[n-1])
	for i := n - 1; i >= 1; i-- {
		var xi gfP
		xi.Mul(&inv, &prefix[i-1])
		inv.Mul(&inv, xs[i])
		*xs[i] = xi
	}
	*xs[0] = inv
}

// millerRecorder accumulates a Miller program with each line's yP
// coefficient A kept aside until normalize divides it out.
type millerRecorder struct {
	pc *PairingPrecomp
	as []gfP2
}

func (r *millerRecorder) square() {
	r.pc.ops = append(r.pc.ops, ppOp{slot: -1})
}

func (r *millerRecorder) line(slot int32, a, b, c *gfP2) {
	r.pc.ops = append(r.pc.ops, ppOp{slot: slot, b: *b, c: *c})
	r.as = append(r.as, *a)
}

// double records the tangent line at the Jacobian point t and doubles
// it. With slope lambda = 3X^2/(2YZ) and the line scaled by 2YZ^3:
// A = 2YZ^3, B = -3X^2 Z^2, C = 3X^3 - 2Y^2.
func (r *millerRecorder) double(slot int32, t *twistPoint) {
	var zz, a, b, c, x2, y2 gfP2
	zz.Square(&t.z)
	a.Mul(&t.y, &t.z)
	a.Mul(&a, &zz)
	a.Double(&a)
	x2.Square(&t.x)
	b.Double(&x2)
	b.Add(&b, &x2) // 3X^2
	c.Mul(&b, &t.x)
	y2.Square(&t.y)
	y2.Double(&y2)
	c.Sub(&c, &y2)
	b.Mul(&b, &zz)
	b.Neg(&b)
	r.line(slot, &a, &b, &c)
	t.Double(t)
}

// add records the line through the Jacobian point t and the affine
// point q and sets t = t + q. With H = xQ Z^2 - X, N = yQ Z^3 - Y and
// the line scaled by D = ZH: A = D, B = -N, C = N xQ - D yQ.
func (r *millerRecorder) add(slot int32, t, q *twistPoint) {
	var zz, h, n, a, b, c, t0 gfP2
	zz.Square(&t.z)
	h.Mul(&q.x, &zz)
	h.Sub(&h, &t.x)
	n.Mul(&q.y, &zz)
	n.Mul(&n, &t.z)
	n.Sub(&n, &t.y)
	a.Mul(&t.z, &h)
	b.Neg(&n)
	c.Mul(&n, &q.x)
	t0.Mul(&a, &q.y)
	c.Sub(&c, &t0)
	r.line(slot, &a, &b, &c)
	t.Add(t, q)
}

// normalize divides every recorded line by its A. 1/A = conj(A)/N(A)
// with the norm N(A) in Fp, so one batched base-field inversion covers
// the whole program.
func (r *millerRecorder) normalize() {
	norms := make([]gfP, len(r.as))
	invs := make([]*gfP, len(r.as))
	for i := range r.as {
		var t gfP
		norms[i].Square(&r.as[i].a0)
		t.Square(&r.as[i].a1)
		norms[i].Add(&norms[i], &t)
		invs[i] = &norms[i]
	}
	batchInvert(invs)
	k := 0
	for i := range r.pc.ops {
		op := &r.pc.ops[i]
		if op.slot < 0 {
			continue
		}
		var ainv gfP2
		ainv.Conjugate(&r.as[k])
		ainv.MulScalar(&ainv, &norms[k])
		op.b.Mul(&op.b, &ainv)
		op.c.Mul(&op.c, &ainv)
		k++
	}
}

// PrecomputePairBatch records the optimal ate Miller program of a fixed
// batch of G2 points, to be evaluated against many G1 batches with
// PairBatchPrecomputed. Points at infinity record no lines: they pair
// to the identity. On CPUs with AVX-512 IFMA a batch of laneMinSlots or
// more live slots is recorded on the lane kernels, up to eight slots per
// chain (recordLanes), and then evaluates there; the program is the
// same either way, its coefficients in lane form or as gfP. The
// returned handle is immutable and safe for concurrent use.
func PrecomputePairBatch(qs []*G2) *PairingPrecomp {
	pc := &PairingPrecomp{n: len(qs)}
	slots, qa := tokenSlots(qs)
	if useIFMA && len(slots) >= laneMinSlots {
		pc.recordLanes(slots, qa)
		return pc
	}
	pc.record(slots, qa)
	return pc
}

// tokenSlots returns the indexes of the points of qs that are not at
// infinity, the live slots, and those points in affine form: points not
// yet affine share one field inversion (batchMakeAffineTwist).
func tokenSlots(qs []*G2) ([]int32, []twistPoint) {
	var slots []int32
	var qa []twistPoint
	for j, g := range qs {
		if !g.p.IsInfinity() {
			slots = append(slots, int32(j))
			qa = append(qa, g.p)
		}
	}
	var proj []*twistPoint
	for i := range qa {
		if !qa[i].z.IsOne() {
			proj = append(proj, &qa[i])
		}
	}
	batchMakeAffineTwist(proj)
	return slots, qa
}

// millerSteps is the number of lines the Miller loop records per slot:
// one doubling per NAF digit below the top one, one addition per
// non-zero digit below it, and the two end lines.
func millerSteps() int {
	n := len(sixUPlus2NAF) - 1
	for _, d := range sixUPlus2NAF[:len(sixUPlus2NAF)-1] {
		if d != 0 {
			n++
		}
	}
	return n + 2
}

// record is the scalar recorder: it walks the live slots, with affine
// points qa, one at a time on the twist-point arithmetic. It is the path
// below laneMinSlots and on CPUs without the lane kernels, and the
// oracle of recordLanes.
func (pc *PairingPrecomp) record(slots []int32, qa []twistPoint) {
	type slot struct {
		j        int32
		q, nq, t twistPoint // q and -q affine, t the running multiple
	}
	ss := make([]slot, len(slots))
	for k := range ss {
		s := &ss[k]
		s.j = slots[k]
		s.q = qa[k]
		s.nq.Neg(&s.q)
		s.t.Set(&s.q)
	}
	// The loop walks the NAF of 6u+2 (66 digits, 22 non-zero) from the
	// top: 65 squarings, and per slot 65 doubling lines, 21 addition
	// lines (with q or -q) and 2 end lines. A -1 digit adds -q: the
	// Miller function this computes differs from f_{6u+2,Q} only by
	// vertical-line factors, which lie in Fp6 and vanish in the final
	// exponentiation, so GT is unchanged (TestKnownAnswerVectors).
	n := len(sixUPlus2NAF)
	pc.ops = make([]ppOp, 0, n-1+millerSteps()*len(ss))
	r := &millerRecorder{pc: pc, as: make([]gfP2, 0, cap(pc.ops))}

	for i := n - 2; i >= 0; i-- {
		r.square()
		for k := range ss {
			r.double(ss[k].j, &ss[k].t)
		}
		switch sixUPlus2NAF[i] {
		case 1:
			for k := range ss {
				r.add(ss[k].j, &ss[k].t, &ss[k].q)
			}
		case -1:
			for k := range ss {
				r.add(ss[k].j, &ss[k].t, &ss[k].nq)
			}
		}
	}
	for k := range ss {
		s := &ss[k]
		var q1, q2 twistPoint
		q1.Frobenius(&s.q)
		q2.Frobenius(&q1)
		q2.Neg(&q2)
		r.add(s.j, &s.t, &q1)
		r.add(s.j, &s.t, &q2)
	}
	r.normalize()
}

// rowPoints holds a chunk's G1 points in the form the Miller program
// reads: for slot j of row r, at index r*n + j, xs = xP/yP and
// ys = 1/yP, or skip for a point at infinity, which contributes the
// identity.
type rowPoints struct {
	xs, ys []gfP
	skip   []bool
}

// points prepares the rows of a chunk with one base-field inversion for
// all their yP. yP is never zero: E(Fp) has prime order, so it has no
// point of order two.
func (pc *PairingPrecomp) points(rows [][]*G1) *rowPoints {
	m := len(rows) * pc.n
	pts := &rowPoints{xs: make([]gfP, m), ys: make([]gfP, m), skip: make([]bool, m)}
	invs := make([]*gfP, 0, m)
	for r, ps := range rows {
		if len(ps) != pc.n {
			panic("bn256: mismatched pairing batch")
		}
		for j, g := range ps {
			i := r*pc.n + j
			if g.p.IsInfinity() {
				pts.skip[i] = true
				continue
			}
			var a curvePoint
			a.Set(&g.p)
			a.MakeAffine()
			pts.xs[i] = a.x
			pts.ys[i] = a.y
			invs = append(invs, &pts.ys[i])
		}
	}
	batchInvert(invs)
	for i := range pts.xs {
		pts.xs[i].Mul(&pts.xs[i], &pts.ys[i])
	}
	return pts
}

// miller evaluates the recorded program at one row's points, xs, ys and
// skip from rowPoints. Accumulator squarings are elided while the
// accumulator is still one.
func (pc *PairingPrecomp) miller(xs, ys []gfP, skip []bool) gfP12 {
	var f gfP12
	f.SetOne()
	one := true
	var l1, l3 gfP2
	for i := range pc.ops {
		op := &pc.ops[i]
		if op.slot < 0 {
			if !one {
				f.Square(&f)
			}
			continue
		}
		if skip[op.slot] {
			continue
		}
		l1.MulScalar(&op.b, &xs[op.slot])
		l3.MulScalar(&op.c, &ys[op.slot])
		if one {
			// f = 1 * l: install the sparse line directly.
			f.SetOne()
			f.c1.b0 = l1
			f.c1.b1 = l3
			one = false
			continue
		}
		f.mulLine(&f, &l1, &l3)
	}
	return f
}

// EvalRows sets out[i] to prod_j e(Q_j, rows[i][j]) for the fixed G2
// batch Q recorded in pc: PairBatchPrecomputed of every row, evaluated
// in the chunks of RowChunk. It panics if a row's length differs from
// the precomputed batch size or len(out) from len(rows).
func (pc *PairingPrecomp) EvalRows(rows [][]*G1, out []GT) {
	if len(out) != len(rows) {
		panic("bn256: mismatched output length")
	}
	for c := range RowChunks(len(rows)) {
		lo, hi := RowChunk(len(rows), c)
		pc.evalChunk(rows[lo:hi], out[lo:hi])
	}
}

// RowChunks returns the number of chunks EvalRows evaluates n rows in,
// ceil(n/8), and RowChunk chunk c's rows [lo, hi): the chunks are
// contiguous, in order and of near-equal size, so none has more than
// eight rows (the eight lanes of one lane evaluation) and, from two rows
// on, none has only one, which would cost a whole lane evaluation: nine
// rows are chunks of five and four, not eight and one. Callers that
// hand EvalRows a chunk at a time, as SJ.Dec's row pool does, cut with
// the same rule.
func RowChunks(n int) int { return (n + laneRows - 1) / laneRows }

// RowChunk returns chunk c of n rows, as RowChunks describes.
func RowChunk(n, c int) (lo, hi int) {
	k := RowChunks(n)
	return (c*n + k - 1) / k, ((c+1)*n + k - 1) / k
}

// evalChunk evaluates up to laneRows rows: on the lane kernels for a
// program recorded there, else row by row.
func (pc *PairingPrecomp) evalChunk(rows [][]*G1, out []GT) {
	pts := pc.points(rows)
	if pc.lane != nil {
		pc.evalLanes(pts, out)
	} else {
		pc.evalRows(pts, out)
	}
}

// evalRows is evalChunk one row at a time on the scalar kernels, with
// the final exponentiations' inversions shared.
func (pc *PairingPrecomp) evalRows(pts *rowPoints, out []GT) {
	fs := make([]gfP12, len(out))
	for r := range fs {
		lo, hi := r*pc.n, (r+1)*pc.n
		fs[r] = pc.miller(pts.xs[lo:hi], pts.ys[lo:hi], pts.skip[lo:hi])
	}
	finalExponentiationBatch(fs)
	for r := range fs {
		out[r].p = fs[r]
	}
}

// PairBatchPrecomputed computes prod_i e(Q_i, P_i) for the fixed G2
// batch recorded in pc, equal to PairBatch of the original points with
// ps: EvalRows of one row. It panics if len(ps) differs from the
// precomputed batch size.
func PairBatchPrecomputed(pc *PairingPrecomp, ps []*G1) *GT {
	out := make([]GT, 1)
	pc.EvalRows([][]*G1{ps}, out)
	return &out[0]
}

// finalExponentiationBatch raises every f in fs to (p^12-1)/r, mapping
// Miller-loop output into the order-r subgroup of Fp12 (GT). The easy
// part uses conjugation, one inversion and the p^2 Frobenius; the
// inversions of the whole batch share one base-field inversion
// (fp12Inverse). After it the element lies in the cyclotomic subgroup,
// so the hard part (p^4-p^2+1)/r runs as the Devegili et al. Frobenius
// decomposition in the BN parameter u — three exponentiations by the
// 63-bit u (expByU, signed digits on cyclotomic squarings) instead of
// one by a 1000-bit exponent. The tower tests pin it against the plain
// finalExpHard exponentiation.
func finalExponentiationBatch(fs []gfP12) {
	invs := make([]fp12Inverse, len(fs))
	ns := make([]*gfP, len(fs))
	for i := range fs {
		ns[i] = invs[i].start(&fs[i])
	}
	batchInvert(ns)
	for i := range fs {
		var t0, t1 gfP12
		// f^(p^6-1) = conj(f) * f^-1
		invs[i].finish(&t1, &fs[i])
		t0.Conjugate(&fs[i])
		t0.Mul(&t0, &t1)
		// ^(p^2+1)
		t1.Frobenius2(&t0)
		t0.Mul(&t0, &t1)
		// ^((p^4-p^2+1)/r)
		fs[i] = hardExponentiation(&t0)
	}
}

// expByU sets e = a^u for a in the cyclotomic subgroup. It walks the
// width-4 wNAF of u (14 non-zero digits) on cyclotomic squarings with a
// table of a, a^3, a^5, a^7; a negative digit multiplies by the
// conjugate, which is the inverse in the cyclotomic subgroup. That is 16
// Fp12 multiplications where the binary digits of u cost 27.
func (e *gfP12) expByU(a *gfP12) *gfP12 {
	var table [4]gfP12 // table[i] = a^(2i+1)
	var a2 gfP12
	a2.cyclotomicSquare(a)
	table[0].Set(a)
	for i := 1; i < len(table); i++ {
		table[i].Mul(&table[i-1], &a2)
	}
	n := len(uWNAF)
	var acc, t gfP12
	acc.Set(&table[uWNAF[n-1]/2])
	for i := n - 2; i >= 0; i-- {
		acc.cyclotomicSquare(&acc)
		switch d := uWNAF[i]; {
		case d > 0:
			acc.Mul(&acc, &table[d/2])
		case d < 0:
			t.Conjugate(&table[-d/2])
			acc.Mul(&acc, &t)
		}
	}
	return e.Set(&acc)
}

// hardExponentiation computes a^((p^4-p^2+1)/r) for a in the cyclotomic
// subgroup, using the exact decomposition of the hard exponent into
// powers of p and u (Devegili, O hEigeartaigh, Scott, Dahab,
// "Implementing Cryptographic Pairings over Barreto-Naehrig Curves").
// Inversions become conjugations in the cyclotomic subgroup.
func hardExponentiation(a *gfP12) gfP12 {
	var fp, fp2, fp3 gfP12
	fp.Frobenius1(a)
	fp2.Frobenius2(a)
	fp3.Frobenius1(&fp2)

	var fu, fu2, fu3 gfP12
	fu.expByU(a)
	fu2.expByU(&fu)
	fu3.expByU(&fu2)

	var y3, fu2p, fu3p, y2 gfP12
	y3.Frobenius1(&fu)
	fu2p.Frobenius1(&fu2)
	fu3p.Frobenius1(&fu3)
	y2.Frobenius2(&fu2)

	var y0 gfP12
	y0.Mul(&fp, &fp2)
	y0.Mul(&y0, &fp3)

	var y1, y4, y5, y6 gfP12
	y1.Conjugate(a)
	y5.Conjugate(&fu2)
	y3.Conjugate(&y3)
	y4.Mul(&fu, &fu2p)
	y4.Conjugate(&y4)
	y6.Mul(&fu3, &fu3p)
	y6.Conjugate(&y6)

	var t0, t1 gfP12
	t0.cyclotomicSquare(&y6)
	t0.Mul(&t0, &y4)
	t0.Mul(&t0, &y5)
	t1.Mul(&y3, &y5)
	t1.Mul(&t1, &t0)
	t0.Mul(&t0, &y2)
	t1.cyclotomicSquare(&t1)
	t1.Mul(&t1, &t0)
	t1.cyclotomicSquare(&t1)
	t0.Mul(&t1, &y1)
	t1.Mul(&t1, &y0)
	t0.cyclotomicSquare(&t0)
	t0.Mul(&t0, &t1)
	return t0
}
