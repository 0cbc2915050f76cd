package mat

// Exported for exp_test.go, an external test package: it reads the
// simulator's service profiles, and service imports mat.
var WithKernels = withKernels

// ExpKernelRuns says Exp sends whole vectors to expKernel in this process.
func ExpKernelRuns() bool { return HaveFMA() && expFused }

// ScratchShapes lists the shapes the scratch pool holds free, with how
// many of each.
var ScratchShapes = scratchShapes
