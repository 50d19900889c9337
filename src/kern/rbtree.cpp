#include "kern/rbtree.hpp"

#include <cassert>

namespace drowsy::kern {

namespace {
[[nodiscard]] bool is_red(const RbNode* n) { return n != nullptr && n->red; }

[[nodiscard]] RbNode* minimum(RbNode* n) {
  while (n->left != nullptr) n = n->left;
  return n;
}
}  // namespace

void RbTree::link_node(RbNode* node, RbNode* parent, RbNode** link) {
  node->parent = parent;
  node->left = node->right = nullptr;
  node->red = true;
  *link = node;
}

void RbTree::rotate_left(RbNode* x) {
  RbNode* y = x->right;
  x->right = y->left;
  if (y->left != nullptr) y->left->parent = x;
  y->parent = x->parent;
  if (x->parent == nullptr) {
    root_ = y;
  } else if (x == x->parent->left) {
    x->parent->left = y;
  } else {
    x->parent->right = y;
  }
  y->left = x;
  x->parent = y;
}

void RbTree::rotate_right(RbNode* x) {
  RbNode* y = x->left;
  x->left = y->right;
  if (y->right != nullptr) y->right->parent = x;
  y->parent = x->parent;
  if (x->parent == nullptr) {
    root_ = y;
  } else if (x == x->parent->right) {
    x->parent->right = y;
  } else {
    x->parent->left = y;
  }
  y->right = x;
  x->parent = y;
}

void RbTree::insert_color(RbNode* node) {
  ++size_;
  RbNode* z = node;
  while (is_red(z->parent)) {
    RbNode* parent = z->parent;
    RbNode* grandparent = parent->parent;  // non-null: red parent is never the root
    if (parent == grandparent->left) {
      RbNode* uncle = grandparent->right;
      if (is_red(uncle)) {
        parent->red = false;
        uncle->red = false;
        grandparent->red = true;
        z = grandparent;
      } else {
        if (z == parent->right) {
          z = parent;
          rotate_left(z);
          parent = z->parent;
        }
        parent->red = false;
        grandparent->red = true;
        rotate_right(grandparent);
      }
    } else {
      RbNode* uncle = grandparent->left;
      if (is_red(uncle)) {
        parent->red = false;
        uncle->red = false;
        grandparent->red = true;
        z = grandparent;
      } else {
        if (z == parent->left) {
          z = parent;
          rotate_right(z);
          parent = z->parent;
        }
        parent->red = false;
        grandparent->red = true;
        rotate_left(grandparent);
      }
    }
  }
  root_->red = false;
}

void RbTree::erase(RbNode* z) {
  assert(size_ > 0);
  auto transplant = [this](RbNode* u, RbNode* v) {
    if (u->parent == nullptr) {
      root_ = v;
    } else if (u == u->parent->left) {
      u->parent->left = v;
    } else {
      u->parent->right = v;
    }
    if (v != nullptr) v->parent = u->parent;
  };

  RbNode* x = nullptr;
  RbNode* x_parent = nullptr;
  bool removed_red;

  if (z->left == nullptr) {
    x = z->right;
    x_parent = z->parent;
    removed_red = z->red;
    transplant(z, z->right);
  } else if (z->right == nullptr) {
    x = z->left;
    x_parent = z->parent;
    removed_red = z->red;
    transplant(z, z->left);
  } else {
    RbNode* y = minimum(z->right);  // z's in-order successor, has no left child
    removed_red = y->red;
    x = y->right;
    if (y->parent == z) {
      x_parent = y;
    } else {
      x_parent = y->parent;
      transplant(y, y->right);
      y->right = z->right;
      y->right->parent = y;
    }
    transplant(z, y);
    y->left = z->left;
    y->left->parent = y;
    y->red = z->red;
  }

  if (!removed_red) erase_fixup(x, x_parent);

  z->parent = z->left = z->right = nullptr;
  z->red = false;
  --size_;
}

void RbTree::erase_fixup(RbNode* x, RbNode* parent) {
  while (x != root_ && !is_red(x)) {
    if (parent == nullptr) break;  // tree became empty
    if (x == parent->left) {
      RbNode* w = parent->right;  // sibling; non-null because x is doubly black
      if (is_red(w)) {
        w->red = false;
        parent->red = true;
        rotate_left(parent);
        w = parent->right;
      }
      if (!is_red(w->left) && !is_red(w->right)) {
        w->red = true;
        x = parent;
        parent = x->parent;
      } else {
        if (!is_red(w->right)) {
          if (w->left != nullptr) w->left->red = false;
          w->red = true;
          rotate_right(w);
          w = parent->right;
        }
        w->red = parent->red;
        parent->red = false;
        if (w->right != nullptr) w->right->red = false;
        rotate_left(parent);
        x = root_;
        break;
      }
    } else {
      RbNode* w = parent->left;
      if (is_red(w)) {
        w->red = false;
        parent->red = true;
        rotate_right(parent);
        w = parent->left;
      }
      if (!is_red(w->right) && !is_red(w->left)) {
        w->red = true;
        x = parent;
        parent = x->parent;
      } else {
        if (!is_red(w->left)) {
          if (w->right != nullptr) w->right->red = false;
          w->red = true;
          rotate_left(w);
          w = parent->left;
        }
        w->red = parent->red;
        parent->red = false;
        if (w->left != nullptr) w->left->red = false;
        rotate_right(parent);
        x = root_;
        break;
      }
    }
  }
  if (x != nullptr) x->red = false;
}

RbNode* RbTree::first() const { return root_ == nullptr ? nullptr : minimum(root_); }

RbNode* RbTree::next(const RbNode* node) {
  if (node->right != nullptr) return minimum(node->right);
  const RbNode* n = node;
  RbNode* parent = n->parent;
  while (parent != nullptr && n == parent->right) {
    n = parent;
    parent = parent->parent;
  }
  return parent;
}

int RbTree::validate_subtree(const RbNode* node) {
  if (node == nullptr) return 1;  // null leaves are black
  if (node->red && (is_red(node->left) || is_red(node->right))) return -1;
  if (node->left != nullptr && node->left->parent != node) return -1;
  if (node->right != nullptr && node->right->parent != node) return -1;
  const int lh = validate_subtree(node->left);
  const int rh = validate_subtree(node->right);
  if (lh < 0 || rh < 0 || lh != rh) return -1;
  return lh + (node->red ? 0 : 1);
}

int RbTree::validate() const {
  if (root_ == nullptr) return 0;
  if (root_->red || root_->parent != nullptr) return -1;
  return validate_subtree(root_);
}

}  // namespace drowsy::kern
