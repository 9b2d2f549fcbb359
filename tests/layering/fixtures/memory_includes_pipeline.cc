#include "pipeline/cpu.hh"
