/**
 * @file
 * IdMap: per-pid or per-channel state in one vector sorted by id.
 *
 * A kernel hands out pids and channel ids in increasing order and
 * holds few of them at once, so a sorted vector serves the hot paths
 * (a doorbell's channel lookup, a poll's per-task counters) with a
 * binary search over contiguous entries and, once its capacity covers
 * the live population, no allocation per insert. Iteration is in
 * ascending id order, as over the std::map it replaces.
 *
 * Inserting or erasing moves the entries behind the position: no
 * reference into the map may be held across either.
 */

#ifndef NEON_SIM_ID_MAP_HH
#define NEON_SIM_ID_MAP_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace neon
{

template <typename V>
class IdMap
{
  public:
    struct Entry
    {
        int id;
        V value;
    };

    std::size_t size() const { return entries.size(); }
    void clear() { entries.clear(); }

    auto begin() { return entries.begin(); }
    auto end() { return entries.end(); }
    auto begin() const { return entries.begin(); }
    auto end() const { return entries.end(); }

    /** The value under @p id, or nullptr. */
    V *
    find(int id)
    {
        const auto it = lowerBound(entries, id);
        return it != entries.end() && it->id == id ? &it->value : nullptr;
    }

    const V *
    find(int id) const
    {
        const auto it = lowerBound(entries, id);
        return it != entries.end() && it->id == id ? &it->value : nullptr;
    }

    bool contains(int id) const { return find(id) != nullptr; }

    /** The value under @p id, value-initialized if absent. */
    V &
    operator[](int id)
    {
        const auto it = lowerBound(entries, id);
        if (it != entries.end() && it->id == id) [[likely]]
            return it->value;
        return insertAt(it, id);
    }

    /** Remove @p id's entry; false if there was none. */
    bool
    erase(int id)
    {
        const auto it = lowerBound(entries, id);
        if (it == entries.end() || it->id != id)
            return false;
        entries.erase(it);
        return true;
    }

  private:
    /** The insert half of operator[], kept out of its inlined lookup. */
    [[gnu::noinline]] V &
    insertAt(typename std::vector<Entry>::iterator it, int id)
    {
        return entries.insert(it, Entry{id, V{}})->value;
    }

    template <typename Entries>
    static auto
    lowerBound(Entries &v, int id)
    {
        return std::lower_bound(
            v.begin(), v.end(), id,
            [](const Entry &e, int k) { return e.id < k; });
    }

    std::vector<Entry> entries;
};

} // namespace neon

#endif // NEON_SIM_ID_MAP_HH
