// Must-pass fixture for the stale-suppression rule: the marker
// consumes a real no-libc-random finding, so it is live and the
// whole unit lints clean.
#include <cstdlib>

int
seeded()
{
    return rand(); // smthill-lint: allow(no-libc-random)
}
