// Must-flag fixture for the stale-suppression rule: no marker below
// suppresses anything. The first names a real rule that finds nothing
// on its line, the second names no rule at all, and the third tries
// to excuse the rule itself, which no marker can.

int
answer()
{
    return 42; // smthill-lint: allow(no-libc-random)
}

int
question()
{
    return 6 * 7; // smthill-lint: allow(no-such-rule)
}

// smthill-lint: allow(stale-suppression)
int unused = 0;
