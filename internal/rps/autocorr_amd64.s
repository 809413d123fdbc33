#include "textflag.h"

// func autocorr8(dev []float64, r *[9]float64)
TEXT ·autocorr8(SB), NOSPLIT, $0-32
	MOVQ dev_base+0(FP), SI
	MOVQ dev_len+8(FP), CX
	MOVQ r+24(FP), DI

	// Load the accumulators. r is stored lag-ascending and the lanes
	// hold {odd lag, even lag}, so each pair's halves swap on the way
	// in and again on the way out.
	MOVUPD 0(DI), X0
	SHUFPD $1, X0, X0
	MOVUPD 16(DI), X1
	SHUFPD $1, X1, X1
	MOVUPD 32(DI), X2
	SHUFPD $1, X2, X2
	MOVUPD 48(DI), X3
	SHUFPD $1, X3, X3
	MOVSD  64(DI), X4

	// SI walks &dev[i] from i = 8; CX counts the steps left.
	LEAQ 64(SI), SI
	SUBQ $8, CX
	JLE  done

loop:
	MOVSD    (SI), X5
	UNPCKLPD X5, X5        // {dev[i], dev[i]}
	MOVUPD   -8(SI), X6    // {dev[i-1], dev[i]}
	MULPD    X5, X6
	ADDPD    X6, X0
	MOVUPD   -24(SI), X7   // {dev[i-3], dev[i-2]}
	MULPD    X5, X7
	ADDPD    X7, X1
	MOVUPD   -40(SI), X8   // {dev[i-5], dev[i-4]}
	MULPD    X5, X8
	ADDPD    X8, X2
	MOVUPD   -56(SI), X9   // {dev[i-7], dev[i-6]}
	MULPD    X5, X9
	ADDPD    X9, X3
	MOVSD    -64(SI), X10  // dev[i-8]
	MULSD    X5, X10
	ADDSD    X10, X4
	ADDQ     $8, SI
	DECQ     CX
	JNZ      loop

done:
	SHUFPD $1, X0, X0
	MOVUPD X0, 0(DI)
	SHUFPD $1, X1, X1
	MOVUPD X1, 16(DI)
	SHUFPD $1, X2, X2
	MOVUPD X2, 32(DI)
	SHUFPD $1, X3, X3
	MOVUPD X3, 48(DI)
	MOVSD  X4, 64(DI)
	RET
