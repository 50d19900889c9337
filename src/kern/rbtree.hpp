// Intrusive red-black tree, modelled on the Linux kernel's <linux/rbtree.h>.
//
// The paper's suspending module finds the next waking date by walking "the
// red-black tree structure that is used internally by the kernel to store
// the timers" (§V-B).  We reproduce that substrate: an intrusive tree where
// the node lives inside the payload object, with the kernel's two-phase
// insertion API (find the link yourself, then link_node + insert_color).
#pragma once

#include <cstddef>

namespace drowsy::kern {

/// Node embedded in the payload object.  Zero-initialized nodes are "not in
/// a tree"; use RbTree::is_linked to query.
struct RbNode {
  RbNode* parent = nullptr;
  RbNode* left = nullptr;
  RbNode* right = nullptr;
  bool red = false;
};

/// Recover the payload from its embedded node (kernel's rb_entry/container_of).
template <typename T, RbNode T::*Member>
[[nodiscard]] T* rb_entry(RbNode* node) {
  if (node == nullptr) return nullptr;
  // Compute the member offset without dereferencing a null object.
  alignas(T) static char probe_storage[sizeof(T)];
  T* probe = reinterpret_cast<T*>(probe_storage);
  const auto offset = reinterpret_cast<char*>(&(probe->*Member)) - reinterpret_cast<char*>(probe);
  return reinterpret_cast<T*>(reinterpret_cast<char*>(node) - offset);
}

/// The tree head.  Does not own payloads; callers manage lifetime and must
/// remove nodes before destroying them.
class RbTree {
 public:
  RbTree() = default;
  RbTree(const RbTree&) = delete;
  RbTree& operator=(const RbTree&) = delete;

  [[nodiscard]] bool empty() const { return root_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Phase 1 of insertion: splice `node` into the leaf position `*link`
  /// under `parent` (kernel rb_link_node).
  static void link_node(RbNode* node, RbNode* parent, RbNode** link);

  /// Phase 2 of insertion: rebalance after link_node (kernel rb_insert_color).
  void insert_color(RbNode* node);

  /// Remove `node` from the tree, rebalancing (kernel rb_erase).
  void erase(RbNode* node);

  /// Leftmost (minimum) node, or nullptr when empty (kernel rb_first).
  [[nodiscard]] RbNode* first() const;
  /// In-order successor (kernel rb_next).
  [[nodiscard]] static RbNode* next(const RbNode* node);

  /// Convenience comparator-driven insertion; Less is a strict weak order
  /// over payload nodes.
  template <typename Less>
  void insert(RbNode* node, Less&& less) {
    RbNode** link = &root_;
    RbNode* parent = nullptr;
    while (*link != nullptr) {
      parent = *link;
      link = less(node, *link) ? &(*link)->left : &(*link)->right;
    }
    link_node(node, parent, link);
    insert_color(node);
  }

  /// Validate red-black invariants; returns black-height or -1 on violation.
  /// Test-only helper (O(n)).
  [[nodiscard]] int validate() const;

 private:
  void rotate_left(RbNode* node);
  void rotate_right(RbNode* node);
  void erase_fixup(RbNode* node, RbNode* parent);
  static int validate_subtree(const RbNode* node);

  RbNode* root_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace drowsy::kern
