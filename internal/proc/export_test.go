package proc

// OneRunner lets the package's external tests run on a single runner.
var OneRunner = oneRunner
