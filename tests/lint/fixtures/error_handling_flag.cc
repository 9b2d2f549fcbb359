// Must-flag fixture for rule `error-handling`: manual ownership and
// ad-hoc process exits bypass the fatal()/panic() conventions.
#include <cstdlib>

struct Buffer
{
    int *data = nullptr;
};

Buffer
makeBuffer(int n)
{
    if (n <= 0)
        exit(2);
    Buffer b;
    b.data = new int[static_cast<unsigned>(n)];
    return b;
}

void
freeBuffer(Buffer &b)
{
    delete[] b.data;
}
