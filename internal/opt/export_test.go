package opt

// SetSkipping turns pass-instance skipping on or off for the tests of
// package opt_test and returns a function restoring the previous setting.
func SetSkipping(on bool) (restore func()) {
	prev := skipUnchanged
	skipUnchanged = on
	return func() { skipUnchanged = prev }
}

// Scratch modes for SetScratch.
const (
	ScratchShared   = int(scratchShared)
	ScratchFresh    = int(scratchFresh)
	ScratchPoisoned = int(scratchPoisoned)
)

// SetScratch selects how ObservedPipeline provisions pass scratch for the
// tests of package opt_test and returns a function restoring the previous
// mode.
func SetScratch(mode int) (restore func()) {
	prev := pipelineScratch
	pipelineScratch = scratchMode(mode)
	return func() { pipelineScratch = prev }
}
