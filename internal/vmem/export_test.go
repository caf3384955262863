package vmem

// CheckTeardown exposes the teardown law to the tests of other packages in
// this directory.
var CheckTeardown = checkTeardown
