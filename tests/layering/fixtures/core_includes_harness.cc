#include "harness/runner.hh"
