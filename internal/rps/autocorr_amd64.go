package rps

// autocorr is autocorrPortable, bit for bit. For AR(8), the monitor's
// model, the first eight i (where the longer lags have no term yet) go
// through the portable loop and autocorr8 continues all nine chains from
// there with packed SSE2 arithmetic; other orders take the portable loop.
// dev must hold at least 8 samples when len(r) is 9, which Train's
// minimum history of 2·order+1 guarantees.
func autocorr(dev, r []float64) {
	if len(r) != 9 {
		autocorrPortable(dev, r)
		return
	}
	autocorrPortable(dev[:8], r)
	autocorr8(dev, (*[9]float64)(r))
}

// autocorr8 adds dev[i]*dev[i-lag] to r[lag] for i from 8 to len(dev)-1
// and every lag 0..8, in ascending i per lag. Each step broadcasts
// dev[i] and multiplies it into the unaligned pairs at dev[i-1],
// dev[i-3], dev[i-5] and dev[i-7], the lanes {lag1, lag0}, {lag3, lag2},
// {lag5, lag4} and {lag7, lag6}; lag 8 is scalar. Every term is a
// MULPD or MULSD then an ADDPD or ADDSD: SSE2 has no fused multiply-add,
// so each product is rounded before it is added, as in the portable loop.
// SSE2 is part of the amd64 baseline, so no CPU check is needed.
//
//go:noescape
func autocorr8(dev []float64, r *[9]float64)
