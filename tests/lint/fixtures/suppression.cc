// Suppression fixture: the first two violations carry a matching
// `smthill-lint: allow(...)` (same line, then line above); the third
// names the wrong rule, so its finding survives and its marker is stale.
#include <cstdlib>

int
seededFallback()
{
    int a = rand(); // smthill-lint: allow(no-libc-random)
    // smthill-lint: allow(no-libc-random)
    int b = rand();
    int c = rand(); // smthill-lint: allow(no-wall-clock)
    return a + b + c;
}
