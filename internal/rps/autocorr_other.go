//go:build !amd64

package rps

// autocorr is autocorrPortable: architectures without a kernel run the
// reference loop.
func autocorr(dev, r []float64) { autocorrPortable(dev, r) }
