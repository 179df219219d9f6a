// Known-good: summaries are keyed by class, name and arity. A secret
// passed to one `notify` never taints another class's `notify`, and a
// library method that shares a name and arity with an annotated one
// (std::vector::insert vs Memo::insert) inherits none of its
// OBF_SECRET out-parameters.
#include <cstdint>
#include <vector>

#include "util/secret.hh"

namespace corpus {

struct Tx
{
    uint64_t sent = 0;

    // Four parameters; `count` bounds a loop.
    void notify(int stream, uint64_t first, uint64_t count, bool ctl)
    {
        for (uint64_t i = 0; i < count; ++i)
            sent += first + i + static_cast<uint64_t>(stream + ctl);
    }
};

struct Rx
{
    uint64_t seen = 0;

    // Three parameters, straight-line.
    void notify(int stream, uint64_t first, uint64_t count)
    {
        seen ^= first ^ count ^ static_cast<uint64_t>(stream);
    }
};

struct Memo
{
    // Writes a pad through its out-parameter.
    void insert(uint64_t iv, OBF_SECRET uint64_t &pad) { pad = iv * 3; }
};

void
deliver(Rx &rx, OBF_SECRET uint64_t pad_word)
{
    rx.notify(0, 1, pad_word);
}

void
account(Tx &tx)
{
    tx.notify(0, 1, 4, false);
}

int
logEntry(std::vector<uint64_t> &log, uint64_t entry)
{
    log.insert(log.end(), entry);
    if (entry > 4)
        return 1;
    return 0;
}

} // namespace corpus
