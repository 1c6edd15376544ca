package opt

// SetSkipping turns pass-instance skipping on or off for the tests of
// package opt_test and returns a function restoring the previous setting.
func SetSkipping(on bool) (restore func()) {
	prev := skipUnchanged
	skipUnchanged = on
	return func() { skipUnchanged = prev }
}
