package chaos

// The control-plane delays a plan without explicit ones reports, for the
// external churn tests, which reach the package as the facade and the CLIs
// do.
const (
	DefaultDetectionDelaySec = defaultDetectionDelaySec
	DefaultReconfigDelaySec  = defaultReconfigDelaySec
)
